import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topofeat.diagrams import (BandwidthSpec, filter_by_density, merge_diagrams,
                               mkde_density, parse_bandwidth)
from topofeat.homology import INF, PersistenceDiagram


def make_diagram(bars, with_inf=False):
    feats = [(1, b, d) for b, d in bars]
    if with_inf:
        feats.append((0, 0.0, INF))
    return PersistenceDiagram(feats)


class TestMergeDiagrams:
    def test_multiset_union(self):
        d1 = make_diagram([(0.1, 0.5), (0.2, 0.9), (0.3, 1.0)], with_inf=True)
        d2 = make_diagram([(0.15, 0.4), (0.2, 0.9), (0.5, 2.0)])
        merged = merge_diagrams([d1, d2])
        assert merged.shape == (6, 2)
        # duplicates preserved with multiplicity
        assert (np.isclose(merged, [0.2, 0.9]).all(axis=1)).sum() == 2

    def test_empty_diagram_contributes_nothing(self):
        d1 = make_diagram([(0.1, 0.5)])
        merged = merge_diagrams([d1, PersistenceDiagram()])
        assert merged.shape == (1, 2)

    def test_infinite_and_h0_excluded(self):
        d = PersistenceDiagram([(0, 0.0, 0.5), (1, 0.2, INF), (1, 0.3, 0.7)])
        merged = merge_diagrams([d])
        assert merged.tolist() == [[0.3, 0.7]]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            merge_diagrams([])


class TestBandwidth:
    def test_identity_and_manual(self):
        assert np.array_equal(parse_bandwidth("identity:2.5").as_array(), 2.5 * np.eye(2))
        manual = parse_bandwidth("manual:2,0.5,0.5,1")
        assert np.array_equal(manual.as_array(), [[2.0, 0.5], [0.5, 1.0]])

    def test_cov10_sentinel(self):
        assert parse_bandwidth("cov10") == "cov10"

    def test_from_covariance_is_spd(self, rng):
        pts = rng.normal(size=(100, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        bw = BandwidthSpec.from_covariance(pts)
        h = bw.as_array()
        assert np.allclose(h, h.T)
        assert np.linalg.eigvalsh(h).min() > 0
        assert np.allclose(h, 10.0 * (np.cov(pts.T) + 1e-9 * np.eye(2)))

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            BandwidthSpec(((1.0, 0.5), (0.0, 1.0)))   # asymmetric
        with pytest.raises(ValueError):
            BandwidthSpec(((1.0, 2.0), (2.0, 1.0)))   # indefinite
        with pytest.raises(ValueError):
            parse_bandwidth("manual:1,2,3")


class TestMkdeDensity:
    def test_single_point_identity_bandwidth(self):
        d = mkde_density(np.array([[3.0, 4.0]]), BandwidthSpec.identity(1.0))
        assert d[0] == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)

    def test_two_coincident_points(self):
        h = BandwidthSpec(((2.0, 0.0), (0.0, 0.5)))
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        d = mkde_density(pts, h)
        expected = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(h.as_array())))
        assert np.allclose(d, expected, atol=1e-12)

    def test_gaussian_sample_against_closed_form(self, rng):
        # the estimator's population value is the sampling density convolved
        # with the kernel; for N(0, I) data and H = I that is N(0, 2I)
        pts = rng.multivariate_normal([0, 0], np.eye(2), size=1000)
        dens = mkde_density(pts, BandwidthSpec.identity(1.0))
        target = np.exp(-0.25 * (pts ** 2).sum(axis=1)) / (4 * math.pi)
        mae = np.abs(dens - target).mean()
        assert mae < 0.05 * target.max()

    def test_permutation_equivariance(self, rng):
        pts = rng.normal(size=(40, 2))
        bw = BandwidthSpec.identity(1.0)
        perm = rng.permutation(40)
        assert np.allclose(mkde_density(pts, bw)[perm], mkde_density(pts[perm], bw), atol=1e-12)

    @given(dx=st.floats(-50, 50), dy=st.floats(-50, 50))
    @settings(max_examples=20)
    def test_translation_invariance(self, dx, dy):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 2))
        bw = BandwidthSpec(((1.5, 0.2), (0.2, 0.8)))
        base = mkde_density(pts, bw)
        moved = mkde_density(pts + [dx, dy], bw)
        assert np.allclose(base, moved, atol=1e-9)

    def test_bandwidth_scaling_lowers_peak(self, rng):
        pts = rng.normal(size=(60, 2))
        d1 = mkde_density(pts, BandwidthSpec.identity(1.0))
        d2 = mkde_density(pts, BandwidthSpec.identity(2.0))
        assert d2.max() < d1.max()


class TestFilterByDensity:
    def test_keep_everything(self, rng):
        pts = np.abs(rng.normal(size=(20, 2)))
        pts[:, 1] += pts[:, 0]  # death above birth
        dens = mkde_density(pts, BandwidthSpec.identity(1.0))
        out = filter_by_density(pts, dens, 1.0)
        assert len(out) == 20

    def test_far_outlier_dropped(self, rng):
        clust = rng.normal(0, 0.5, size=(100, 2)) + [5.0, 8.0]
        pts = np.vstack([clust, [[50.0, 60.0]]])
        dens = mkde_density(pts, BandwidthSpec.from_covariance(pts))
        assert int(np.argmin(dens)) == 100
        out = filter_by_density(pts, dens, 0.99)
        assert len(out) == 100
        births = [b for _, b, _ in out.features]
        assert not any(abs(b - 50.0) < 1.0 for b in births)

    @given(n=st.integers(1, 60), frac=st.floats(0.01, 1.0))
    @settings(max_examples=30)
    def test_output_size_is_ceil(self, n, frac):
        rng = np.random.default_rng(n)
        pts = np.abs(rng.normal(size=(n, 2)))
        pts[:, 1] += pts[:, 0]
        dens = rng.uniform(0.1, 1.0, size=n)
        out = filter_by_density(pts, dens, frac)
        assert len(out) == math.ceil(frac * n)

    def test_subset_of_input(self, rng):
        pts = np.abs(rng.normal(size=(30, 2)))
        pts[:, 1] += pts[:, 0]
        dens = rng.uniform(size=30)
        out = filter_by_density(pts, dens, 0.7)
        kept = {(b, d) for _, b, d in out.features}
        assert kept <= {(b, d) for b, d in pts}

    def test_ties_keep_earlier_points(self):
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        dens = np.array([0.5, 0.5, 0.9, 0.9])
        out = filter_by_density(pts, dens, 0.75)  # keeps 3, drops one of the ties
        births = [b for _, b, _ in out.features]
        assert births == [0.0, 2.0, 3.0]

    def test_bad_fraction(self, rng):
        pts = np.abs(rng.normal(size=(5, 2)))
        pts[:, 1] += pts[:, 0]
        with pytest.raises(ValueError):
            filter_by_density(pts, np.ones(5), 0.0)
