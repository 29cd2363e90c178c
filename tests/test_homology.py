import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from topofeat.homology import (INF, FiltrationSimplex, PersistenceDiagram, betti_at,
                               compute_persistence, enclosing_radius, rips_diagram,
                               rips_filtration)
from topofeat.reference import brute_force_betti

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def circle_points(n, radius=1.0):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return radius * np.c_[np.cos(th), np.sin(th)]


class TestRipsFiltration:
    def test_two_points(self):
        simplices = rips_filtration(np.array([[0.0], [1.0]]), max_scale=2.0)
        assert [(s.vertices, s.value) for s in simplices] == [
            ((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]

    def test_equilateral_triangle(self):
        s = 0.8
        pts = np.array([[0, 0], [s, 0], [s / 2, s * np.sqrt(3) / 2]])
        simplices = rips_filtration(pts, max_scale=1.0)
        dims = [sp.dim for sp in simplices]
        assert dims.count(0) == 3 and dims.count(1) == 3 and dims.count(2) == 1
        tri = simplices[-1]
        assert tri.dim == 2 and tri.value == pytest.approx(s)

    def test_unit_square_counts(self):
        simplices = rips_filtration(SQUARE, max_scale=2.0)
        edges = [sp for sp in simplices if sp.dim == 1]
        tris = [sp for sp in simplices if sp.dim == 2]
        assert len(edges) == 6 and len(tris) == 4
        side = [e for e in edges if e.value == pytest.approx(1.0)]
        diag = [e for e in edges if e.value == pytest.approx(math.sqrt(2))]
        assert len(side) == 4 and len(diag) == 2
        assert all(t.value == pytest.approx(math.sqrt(2)) for t in tris)

    def test_max_scale_cuts_edges(self):
        simplices = rips_filtration(SQUARE, max_scale=1.2)
        assert all(sp.value <= 1.2 for sp in simplices)
        assert sum(1 for sp in simplices if sp.dim == 1) == 4

    def test_sorted_and_faces_precede(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(8, 3))
        simplices = rips_filtration(pts, max_scale=5.0)
        keys = [sp.sort_key() for sp in simplices]
        assert keys == sorted(keys)
        compute_persistence(simplices)  # raises if faces follow cofaces

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_monotone_inclusion(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(7, 2))
        lo, hi = sorted(rng.uniform(0.2, 3.0, size=2))
        small = {(s.vertices, s.value) for s in rips_filtration(pts, max_scale=lo)}
        large = {(s.vertices, s.value) for s in rips_filtration(pts, max_scale=hi)}
        assert small <= large


class TestComputePersistence:
    def test_isolated_vertices(self):
        simplices = [FiltrationSimplex((i,), 0.0) for i in range(5)]
        diagram = compute_persistence(simplices)
        assert sorted(diagram.features) == [(0, 0.0, INF)] * 5

    def test_unit_square_loop(self):
        diagram = compute_persistence(rips_filtration(SQUARE, max_scale=2.0))
        h1 = diagram.bars(1)
        assert h1.shape == (1, 2)
        assert h1[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert h1[0, 1] == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_faces_after_cofaces_rejected(self):
        bad = [FiltrationSimplex((0,), 0.0), FiltrationSimplex((0, 1), 1.0),
               FiltrationSimplex((1,), 0.0)]
        with pytest.raises(ValueError, match="faces after cofaces"):
            compute_persistence(bad)

    def test_zero_persistence_dropped(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        diagram = compute_persistence(rips_filtration(pts, max_scale=2.0))
        assert len(diagram.bars(1)) == 0  # the cycle edge is filled instantly


class TestRipsDiagram:
    def test_matches_reference_route_on_random_clouds(self, rng):
        for _ in range(12):
            n = int(rng.integers(5, 35))
            d = int(rng.integers(2, 4))
            pts = rng.normal(size=(n, d))
            filt = rips_filtration(pts, max_scale=float(pdist(pts).max()))
            assert sorted(compute_persistence(filt).features) == \
                sorted(rips_diagram(pts).features)

    def test_matches_reference_route_capped_scale(self):
        pts = circle_points(16)
        filt = rips_filtration(pts, max_scale=0.9)
        assert sorted(compute_persistence(filt).features) == \
            sorted(rips_diagram(pts, max_scale=0.9).features)

    @pytest.mark.parametrize("kind", ["integer_grid", "joint_dimension"])
    def test_matches_reference_route_with_ties_and_12d(self, kind):
        # integer grids tie distances and duplicate points; 12-D is the
        # dimension of the pipeline's joint clouds
        rng = np.random.default_rng(2404)
        for _ in range(20 if kind == "integer_grid" else 4):
            if kind == "integer_grid":
                n = int(rng.integers(5, 26))
                pts = rng.integers(0, 3, (n, int(rng.integers(2, 4)))).astype(float)
            else:
                pts = rng.normal(size=(int(rng.integers(8, 21)), 12))
            filt = rips_filtration(pts, max_scale=float(pdist(pts).max()))
            assert sorted(compute_persistence(filt).features) == \
                sorted(rips_diagram(pts).features)

    def test_row_permutation_invariant_at_cohort_scale(self):
        # 140 x 12 is the joint-cloud size: thousands of cycle edges, so the
        # apparent-pair pass runs over several blocks and some columns reduce
        rng = np.random.default_rng(140)
        pts = rng.normal(size=(140, 12))
        diagram = rips_diagram(pts)
        assert len(diagram.bars(1)) > 0
        assert rips_diagram(pts[rng.permutation(140)]).to_csv_text() == diagram.to_csv_text()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        pts = SQUARE[:3].copy()
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            rips_diagram(pts)

    @pytest.mark.parametrize("max_scale", [0.0, -1.0, np.nan])
    def test_nonpositive_max_scale_rejected(self, max_scale):
        with pytest.raises(ValueError, match="max_scale"):
            rips_diagram(SQUARE[:3], max_scale=max_scale)

    def test_single_point(self):
        assert rips_diagram(np.zeros((1, 3))).features == [(0, 0.0, INF)]

    def test_circle_single_loop(self):
        diagram = rips_diagram(circle_points(20))
        h1 = diagram.bars(1)
        pers = np.sort(h1[:, 1] - h1[:, 0])[::-1]
        assert len(pers) >= 1
        runner_up = pers[1] if len(pers) > 1 else 0.0
        assert pers[0] > 5 * runner_up

    def test_mst_property(self, rng):
        for _ in range(10):
            pts = rng.normal(size=(30, 2))
            dmat = squareform(pdist(pts))
            mst = minimum_spanning_tree(dmat).toarray()
            mst_weights = np.sort(mst[mst > 0])
            deaths = np.sort(rips_diagram(pts).finite_bars(0)[:, 1])
            assert len(deaths) == 29
            assert np.allclose(deaths, mst_weights, atol=1e-9)

    def test_stability_under_perturbation(self, rng):
        pts = circle_points(24)
        delta = 0.01
        noisy = pts + rng.uniform(-delta / 2, delta / 2, size=pts.shape)

        def dominant(diagram):
            bars = diagram.bars(1)
            return bars[np.argmax(bars[:, 1] - bars[:, 0])]

        b0, d0 = dominant(rips_diagram(pts))
        b1, d1 = dominant(rips_diagram(noisy))
        assert abs(b1 - b0) <= 2 * delta and abs(d1 - d0) <= 2 * delta


class TestBettiAt:
    def test_unit_square_at_1_2(self):
        diagram = rips_diagram(SQUARE, max_scale=2.0)
        assert betti_at(diagram, 1.2, 1) == 1
        assert betti_at(diagram, 1.5, 1) == 0

    def test_below_all_births(self):
        diagram = rips_diagram(circle_points(10))
        assert betti_at(diagram, 1e-12, 1) == 0

    def test_discrete_cloud_components(self):
        simplices = [FiltrationSimplex((i,), 0.0) for i in range(7)]
        diagram = compute_persistence(simplices)
        assert betti_at(diagram, 0.0, 0) == 7

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            betti_at(PersistenceDiagram(), -1.0, 0)


class TestOracleEquivalence:
    def test_small_cloud_sweep(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(2, 4))
            pts = rng.normal(size=(n, d))
            max_scale = float(pdist(pts).max()) if n > 1 else 1.0
            filt = rips_filtration(pts, max_scale=max_scale)
            fast = rips_diagram(pts)
            ref = compute_persistence(filt)
            for eps in np.linspace(0, max_scale, 5):
                for dim in (0, 1):
                    expected = brute_force_betti(filt, eps, dim)
                    assert betti_at(ref, eps, dim) == expected
                    assert betti_at(fast, eps, dim) == expected

    def test_oracle_cap(self):
        simplices = [FiltrationSimplex((i,), 0.0) for i in range(13)]
        with pytest.raises(ValueError, match="oracle scale exceeded"):
            brute_force_betti(simplices, 1.0, 0)


class TestEnclosingRadiusCap:
    def test_diagrams_unchanged_by_cap(self, rng):
        # max_scale above the enclosing radius adds only zero-persistence pairs
        for _ in range(6):
            pts = rng.normal(size=(18, 2))
            dmat = squareform(pdist(pts))
            r_enc = enclosing_radius(dmat)
            assert r_enc <= dmat.max()
            full = compute_persistence(rips_filtration(pts, max_scale=float(dmat.max())))
            capped = compute_persistence(rips_filtration(pts, max_scale=float(r_enc)))
            assert sorted(full.features) == sorted(capped.features)


class TestDiagramSerialization:
    def test_roundtrip_with_inf(self, tmp_path):
        diagram = PersistenceDiagram([(0, 0.0, INF), (1, 0.25, 1.5), (0, 0.0, 0.7)])
        path = tmp_path / "d.csv"
        diagram.to_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "dim,birth,death"
        assert "inf" in text
        loaded = PersistenceDiagram.from_csv(path)
        assert sorted(loaded.features) == sorted(diagram.features)

    def test_deterministic_row_order(self):
        d1 = PersistenceDiagram([(1, 0.5, 2.0), (0, 0.0, 1.0), (1, 0.25, 0.5)])
        d2 = PersistenceDiagram([(1, 0.25, 0.5), (1, 0.5, 2.0), (0, 0.0, 1.0)])
        assert d1.to_csv_text() == d2.to_csv_text()

    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError):
            PersistenceDiagram([(1, 2.0, 1.0)])
