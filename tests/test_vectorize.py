import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topofeat.homology import PersistenceDiagram, betti_at
from topofeat.vectorize import (WeightParams, betti_curve,
                                birth_persistence_transform, entropy_summary,
                                peak_split_knot, persistence_image,
                                persistence_landscape, weight_fn)

PAPER_WEIGHTS = WeightParams(plateau=0.0, junction=3.0, ramp_start=100.0, ramp_end=200.0)


def valid_params():
    return st.tuples(
        st.floats(0, 50), st.floats(0, 50), st.floats(0, 400), st.floats(1e-3, 400),
    ).map(lambda t: WeightParams(t[0], t[1], t[2], t[2] + t[3]))


class TestTransform:
    def test_direct_substitution(self):
        out = birth_persistence_transform(np.array([[1.0, math.sqrt(2)]]))
        assert out[0, 0] == 1.0
        assert out[0, 1] == pytest.approx(math.sqrt(2) - 1.0)

    def test_diagonal_point(self):
        out = birth_persistence_transform(np.array([[0.7, 0.7]]))
        assert out[0, 1] == 0.0

    def test_empty(self):
        assert birth_persistence_transform(np.empty((0, 2))).shape == (0, 2)

    def test_infinite_refused(self):
        with pytest.raises(ValueError, match="infinite"):
            birth_persistence_transform(np.array([[0.1, np.inf]]))


class TestWeightFn:
    def test_paper_values(self):
        assert weight_fn(100.0, PAPER_WEIGHTS) == 0.0
        assert weight_fn(200.0, PAPER_WEIGHTS) == 3.0
        assert weight_fn(300.0, PAPER_WEIGHTS) == 10003.0

    def test_zero_at_axis(self):
        assert weight_fn(0.0, PAPER_WEIGHTS) == 0.0
        assert weight_fn(0.0, WeightParams(5.0, 1.0, 10.0, 20.0)) == 0.0

    @given(valid_params())
    def test_continuity_at_knots(self, params):
        t1, t2 = params.ramp_start, params.ramp_end
        scale = max(1.0, params.plateau, params.junction)
        if t1 > 0:
            assert abs(weight_fn(t1, params) - params.plateau) <= 1e-12 * scale
            right = weight_fn(np.nextafter(t1, np.inf), params)
            assert abs(right - params.plateau) <= 1e-9 * scale
        assert abs(weight_fn(t2, params) - params.junction) <= 1e-12 * scale
        right = weight_fn(np.nextafter(t2, np.inf), params)
        assert abs(right - params.junction) <= 1e-9 * scale

    def test_flat_ramp_when_levels_match(self):
        params = WeightParams(2.0, 2.0, 5.0, 9.0)
        ys = np.linspace(5.001, 9.0, 20)
        assert np.allclose(weight_fn(ys, params), 2.0, atol=1e-12)

    def test_negative_persistence_rejected(self):
        with pytest.raises(ValueError):
            weight_fn(-1.0, PAPER_WEIGHTS)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WeightParams(0.0, 1.0, 10.0, 10.0)
        with pytest.raises(ValueError):
            WeightParams(-1.0, 1.0, 0.0, 10.0)


class TestPersistenceImage:
    def test_empty_points(self):
        img = persistence_image(np.empty((0, 2)), grid=(5, 5), extent=((0, 1), (0, 1)), sigma=0.1)
        assert img.shape == (5, 5)
        assert np.all(img == 0)

    def test_zero_weight_annihilates(self):
        pts = np.array([[0.5, 50.0]])  # persistence below ramp_start, plateau 0
        img = persistence_image(pts, grid=(8, 8), extent=((0, 1), (0, 100)), sigma=2.0,
                                params=PAPER_WEIGHTS)
        assert np.all(img == 0)

    def test_mass_conservation_and_normalization(self):
        pts = np.array([[0.0, 150.0]])
        sigma = 3.0
        img_raw = persistence_image(pts, grid=(30, 30), extent=((-20, 20), (130, 170)),
                                    sigma=sigma, params=PAPER_WEIGHTS, normalize=False)
        expected = weight_fn(150.0, PAPER_WEIGHTS)
        assert img_raw.sum() == pytest.approx(expected, rel=0.01)
        img_norm = persistence_image(pts, grid=(30, 30), extent=((-20, 20), (130, 170)),
                                     sigma=sigma, params=PAPER_WEIGHTS)
        assert img_norm.max() == pytest.approx(1.0)

    def test_quadrature_oracle(self):
        # midpoint-rule quadrature of the weighted Gaussian surface, per pixel
        pts = np.array([[0.3, 120.0], [-0.2, 210.0]])
        sigma = 5.0
        extent = ((-1.0, 1.0), (100.0, 240.0))
        img = persistence_image(pts, grid=(4, 4), extent=extent, sigma=sigma,
                                params=PAPER_WEIGHTS, normalize=False)
        (x0, x1), (y0, y1) = extent
        xs = np.linspace(x0, x1, 5)
        ys = np.linspace(y0, y1, 5)

        def midpoints(lo, hi, n=600):
            edges = np.linspace(lo, hi, n + 1)
            return (edges[:-1] + edges[1:]) / 2, (hi - lo) / n

        for r in range(4):
            for c in range(4):
                gx, hx = midpoints(xs[c], xs[c + 1])
                gy, hy = midpoints(ys[r], ys[r + 1])
                xx, yy = np.meshgrid(gx, gy)
                rho = np.zeros_like(xx)
                for bx, py in pts:
                    w = weight_fn(py, PAPER_WEIGHTS)
                    rho += w / (2 * math.pi * sigma**2) * np.exp(
                        -((xx - bx) ** 2 + (yy - py) ** 2) / (2 * sigma**2))
                assert img[r, c] == pytest.approx(float(rho.sum() * hx * hy), rel=1e-4)

    def test_additivity(self, rng):
        a = np.column_stack([rng.normal(size=6), rng.uniform(120, 260, 6)])
        b = np.column_stack([rng.normal(size=4), rng.uniform(120, 260, 4)])
        kw = dict(grid=(12, 12), extent=((-5, 5), (100, 280)), sigma=4.0,
                  params=PAPER_WEIGHTS, normalize=False)
        img_ab = persistence_image(np.vstack([a, b]), **kw)
        img_a = persistence_image(a, **kw)
        img_b = persistence_image(b, **kw)
        assert np.abs(img_ab - (img_a + img_b)).max() < 1e-9

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            persistence_image(np.array([[0.0, 1.0]]), grid=(4, 4), extent=((0, 1), (0, 2)),
                              sigma=-1.0)


class TestLandscape:
    def test_single_bar_tent(self):
        grid = np.linspace(0, 2, 5)
        out = persistence_landscape(np.array([[0.0, 2.0]]), 2, grid).reshape(2, 5)
        assert np.allclose(out[0], [0.0, 0.5, 1.0, 0.5, 0.0])
        assert np.all(out[1] == 0)

    def test_empty_diagram(self):
        assert np.all(persistence_landscape(np.empty((0, 2)), 3, np.linspace(0, 1, 7)) == 0)

    def test_two_disjoint_bars(self):
        grid = np.linspace(0, 6, 13)
        out = persistence_landscape(np.array([[0.0, 2.0], [4.0, 6.0]]), 2, grid).reshape(2, 13)
        brute = np.array([max(0.0, min(t - b, d - t)) for b, d in [(0, 2), (4, 6)]
                          for t in grid]).reshape(2, 13)
        assert np.allclose(out[0], brute.max(axis=0))
        assert np.all(out[1] == 0)

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0.01, 5)), min_size=1, max_size=8))
    @settings(max_examples=25)
    def test_layers_non_increasing(self, raw):
        bars = np.array([[b, b + p] for b, p in raw])
        grid = np.linspace(0, 10, 40)
        out = persistence_landscape(bars, 4, grid).reshape(4, 40)
        for k in range(3):
            assert np.all(out[k] >= out[k + 1] - 1e-12)


class TestEntropySummary:
    def test_single_bar_zero(self):
        es = entropy_summary(np.array([[0.0, 2.0]]), np.array([1.0]))
        assert es[0] == 0.0

    def test_two_equal_bars(self):
        es = entropy_summary(np.array([[0.0, 2.0], [0.0, 2.0]]), np.array([1.0]))
        assert es[0] == pytest.approx(math.log(2))

    def test_three_bars_frozen_value(self):
        bars = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
        es = entropy_summary(bars, np.array([0.5]))
        assert es[0] == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_nothing_alive(self):
        es = entropy_summary(np.array([[0.0, 1.0]]), np.array([5.0]))
        assert es[0] == 0.0


class TestBettiCurve:
    def test_single_bar(self):
        assert betti_curve(np.array([[1.0, 2.0]]), np.array([0.5, 1.5, 2.5])).tolist() == [0, 1, 0]

    def test_empty(self):
        assert np.all(betti_curve(np.empty((0, 2)), np.linspace(0, 1, 5)) == 0)

    def test_nested_bars(self):
        assert betti_curve(np.array([[0.0, 4.0], [1.0, 2.0]]), np.array([1.5]))[0] == 2

    def test_matches_betti_at(self, rng):
        bars = np.sort(rng.uniform(0, 3, size=(12, 2)), axis=1)
        bars[:, 1] += 0.01
        diagram = PersistenceDiagram([(1, b, d) for b, d in bars])
        grid = np.linspace(0, 3.5, 29)
        curve = betti_curve(bars, grid)
        for t, v in zip(grid, curve):
            assert v == betti_at(diagram, t, 1)


class TestPeakSplitKnot:
    def test_bimodal_peaks_split_between_groups(self, rng):
        weak = rng.uniform(0.6, 1.0, size=40)
        strong = rng.uniform(1.4, 2.8, size=40)
        t1 = peak_split_knot(np.concatenate([weak, strong]))
        assert weak.max() < t1 < strong.min()

    def test_fallback_on_tiny_input(self):
        assert peak_split_knot(np.array([0.5]), fallback=7.0) == 7.0
        assert peak_split_knot(np.array([]), fallback=3.0) == 3.0

    def test_zero_peaks_ignored(self):
        t1 = peak_split_knot(np.array([0.0, 0.0, 1.0, 2.0]))
        assert t1 == pytest.approx(1.5)
