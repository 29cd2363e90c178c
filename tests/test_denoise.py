import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (EDGE_CLOUDS, _nearest_mass_stats, child_stdout, full_recompute_fit,
                     kpdtm_objective)

from topofeat import denoise
from topofeat.cloud import PointCloud
from topofeat.denoise import (CenterSet, MassParams, _fit_scores, dtm_profile, kpdtm_eval,
                              kpdtm_fit, prune_cloud, remap_multichannel)
from topofeat.synth import SynthSpec, gen_cloud


def brute_dtm(cloud, query, q):
    """Sort-all-distances oracle for the q-nearest mass score."""
    cloud = np.asarray(cloud, dtype=float)
    d2 = ((cloud - np.asarray(query)) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")[:q]
    neigh = cloud[order]
    m = neigh.mean(axis=0)
    v = ((neigh - m) ** 2).sum(axis=1).mean()
    return float(((np.asarray(query) - m) ** 2).sum() + v)


def neighbour_stats(cloud, idx):
    """Mean and mean squared spread of the cloud points ``idx[j]`` of each query j."""
    neigh = cloud[idx]
    means = neigh.mean(axis=1)
    spread = ((neigh - means[:, None, :]) ** 2).sum(axis=2).mean(axis=1)
    return means, spread


def half_grid(rng, n, d):
    """Points on a half-integer grid: many tied distances and duplicate points."""
    return rng.integers(-3, 4, size=(n, d)) / 2.0


# (cloud builder, q, k, max_iter); each case is fitted under several seeds
ORACLE_CASES = {
    "cohort_502x2": (lambda rng: rng.normal(size=(502, 2)), 10, 350, 50),
    "d1": (lambda rng: rng.normal(size=(120, 1)), 7, 40, 50),
    "d1_pairwise_mean": (lambda rng: rng.normal(size=(200, 1)), 20, 60, 50),
    "d3": (lambda rng: rng.normal(size=(120, 3)), 7, 40, 50),
    "d6": (lambda rng: rng.normal(size=(120, 6)), 7, 40, 50),
    "half_grid_2d": (lambda rng: half_grid(rng, 90, 2), 5, 30, 50),
    "half_grid_3d": (lambda rng: half_grid(rng, 90, 3), 8, 60, 50),
    "k_equals_n": (lambda rng: rng.normal(size=(40, 2)), 4, 40, 50),
    "q_equals_n": (lambda rng: rng.normal(size=(40, 2)), 40, 10, 50),
    "q_and_k_equal_n": (lambda rng: half_grid(rng, 40, 2), 40, 40, 50),
    "max_iter_1": (lambda rng: rng.normal(size=(502, 2)), 10, 350, 1),
    "max_iter_2": (lambda rng: rng.normal(size=(502, 2)), 10, 350, 2),
}


class TestDtm:
    def test_q1_is_squared_nn(self, rng):
        pts = rng.normal(size=(200, 3))
        queries = rng.normal(size=(50, 3))
        vals = dtm_profile(pts, queries, 1)
        nn = ((queries[:, None, :] - pts[None, :, :]) ** 2).sum(-1).min(1)
        assert np.abs(vals - nn).max() < 1e-12

    def test_query_on_cloud_point(self, rng):
        pts = rng.normal(size=(30, 2))
        assert dtm_profile(pts, pts[7:8], 1).tolist() == [0.0]

    def test_hand_computed_line(self):
        cloud = np.array([[0.0], [2.0]])
        assert dtm_profile(cloud, [[0.0]], 2) == pytest.approx([2.0])
        assert brute_dtm(cloud, [0.0], 2) == pytest.approx(2.0)

    def test_matches_brute_oracle(self, rng):
        pts = rng.normal(size=(100, 4))
        for q in (1, 5, 17):
            for query in rng.normal(size=(10, 4)):
                [val] = dtm_profile(pts, query[None, :], q)
                assert val == pytest.approx(brute_dtm(pts, query, q), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_neighbours_match_brute_force_sort(self, n, d, seed, data):
        # the q nearest by a full stable sort of the distances, then the index
        rng = np.random.default_rng(seed)
        cloud, queries = half_grid(rng, n, d), half_grid(rng, 15, d)
        q = data.draw(st.integers(1, n))
        idx = [sorted(range(n), key=lambda i: (float(((cloud[i] - y) ** 2).sum()), i))[:q]
               for y in queries]
        ref = neighbour_stats(cloud, np.array(idx))
        got = denoise._mass_stats(queries, cloud, q)
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        m, v = _nearest_mass_stats(queries, cloud, q)
        profile = ((queries - m) ** 2).sum(axis=1) + v
        assert dtm_profile(cloud, queries, q).tobytes() == profile.tobytes()

    def test_empty_and_oversized(self, rng):
        with pytest.raises(ValueError):
            dtm_profile(np.empty((0, 2)), [[0, 0]], 1)
        with pytest.raises(ValueError, match="q exceeds cloud size"):
            dtm_profile(rng.normal(size=(5, 2)), [[0, 0]], 6)

    def test_bad_cloud_or_query_dimension_rejected(self, rng):
        pts = rng.normal(size=(20, 2))
        with pytest.raises(ValueError, match="queries have 3 coordinates, the cloud 2"):
            dtm_profile(pts, rng.normal(size=(4, 3)), 2)
        pts[5, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dtm_profile(pts, pts[:1], 2)

    @pytest.mark.parametrize("q", [0, -2])
    def test_q_below_one_rejected(self, rng, q):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="q must be"):
            dtm_profile(pts, [[0, 0]], q)
        with pytest.raises(ValueError, match="q must be"):
            dtm_profile(pts, pts, q)


class TestEmptyCloud:
    @pytest.mark.parametrize("call, message", [
        (lambda pts: dtm_profile(pts, [[0.0, 0.0]], 1), "q exceeds cloud size"),
        (lambda pts: kpdtm_fit(pts, MassParams(n_neighbors=1, n_centers=1)),
         "n_neighbors=1 exceeds cloud size 0"),
        (lambda pts: prune_cloud(pts, MassParams(), 1), "keep_n=1 exceeds cloud size 0"),
    ], ids=["dtm_profile", "kpdtm_fit", "prune_cloud"])
    @pytest.mark.parametrize("shape", [(0, 2), (0,)], ids=["0x2", "flat"])
    def test_reaches_its_own_size_check(self, call, message, shape):
        with pytest.raises(ValueError, match=message):
            call(np.empty(shape))


class TestKpdtmFit:
    def test_every_point_its_own_center(self, rng):
        pts = rng.normal(size=(30, 2))
        centers = kpdtm_fit(pts, MassParams(1, 30, 50, 0))
        assert np.all(centers.variances == 0.0)
        assert kpdtm_objective(centers, pts) == pytest.approx(0.0, abs=1e-12)
        evals = kpdtm_eval(centers, pts)
        assert np.abs(evals).max() == pytest.approx(0.0, abs=1e-12)

    def test_two_blob_structure_matches_brute_force(self, rng):
        blob_a = rng.normal(size=(50, 2)) * 0.3 + [5.0, 0.0]
        blob_b = rng.normal(size=(50, 2)) * 0.3 - [5.0, 0.0]
        pts = np.vstack([blob_a, blob_b])
        params = MassParams(10, 2, 50, 3)
        centers = kpdtm_fit(pts, params)
        # brute-force the two-center objective over all candidate pairs
        cand_m, cand_v = _nearest_mass_stats(pts, pts, 10)
        best, best_pair = np.inf, None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                cs = CenterSet(np.vstack([cand_m[i], cand_m[j]]), np.array([cand_v[i], cand_v[j]]))
                val = kpdtm_objective(cs, pts)
                if val < best:
                    best, best_pair = val, (i, j)
        assert kpdtm_objective(centers, pts) <= best * 1.05
        # optimum structure: one center mean inside each blob's bounding box
        for blob in (blob_a, blob_b):
            lo, hi = blob.min(axis=0), blob.max(axis=0)
            inside = np.all((centers.means >= lo) & (centers.means <= hi), axis=1)
            assert inside.sum() == 1

    def test_objective_monotone_descent(self, rng):
        for seed in range(20):
            pts = rng.normal(size=(80, 3))
            hist = []
            kpdtm_fit(pts, MassParams(5, 12, 50, seed), history=hist)
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(60, 2))
        c1 = kpdtm_fit(pts, MassParams(7, 9, 50, 11))
        c2 = kpdtm_fit(pts, MassParams(7, 9, 50, 11))
        assert np.array_equal(c1.means, c2.means)
        assert np.array_equal(c1.variances, c2.variances)

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError):
            kpdtm_fit(rng.normal(size=(5, 2)), MassParams(2, 6, 10, 0))

    def test_capped_params(self):
        p = MassParams(10, 350, 50, 0).capped(120)
        assert p.n_centers == 120 and p.n_neighbors == 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, rng, bad):
        pts = rng.normal(size=(20, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kpdtm_fit(pts, MassParams(3, 5, 10, 0))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_full_recompute_oracle(self, case):
        build, q, k, max_iter = ORACLE_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        for seed in range(4):
            pts = build(rng)
            params = MassParams(q, k, max_iter, seed)
            hist, ref_hist = [], []
            got = kpdtm_fit(pts, params, history=hist)
            ref = full_recompute_fit(pts, params, history=ref_hist)
            assert got.means.tobytes() == ref.means.tobytes()
            assert got.variances.tobytes() == ref.variances.tobytes()
            assert np.array(hist).tobytes() == np.array(ref_hist).tobytes()
            assert fit_bytes(kpdtm_fit, pts, params) == fit_bytes(full_recompute_fit, pts, params)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_numpy_oracle_on_drawn_grids(self, n, d, seed, data):
        # half-integer grids tie distances, scores and centroids, and duplicate points;
        # negated, their zeros are -0.0, which numpy's sums turn into 0.0
        pts = half_grid(np.random.default_rng(seed), n, d) * data.draw(st.sampled_from([1, -1]))
        params = MassParams(data.draw(st.integers(1, n)), data.draw(st.integers(1, n)),
                            data.draw(st.integers(1, 30)), data.draw(st.integers(0, 5)))
        assert fit_bytes(kpdtm_fit, pts, params) == fit_bytes(full_recompute_fit, pts, params)

    def test_two_cycle_stops_before_the_cap(self):
        # the fourth k_equals_n cloud alternates between two assignments whose
        # objectives differ in the last bit, so the objective never repeats
        rng = np.random.default_rng(sum(map(ord, "k_equals_n")))
        pts = [rng.normal(size=(40, 2)) for _ in range(4)][3]
        hist = []
        centers = kpdtm_fit(pts, MassParams(4, 40, 50, 3), history=hist)
        assert len(hist) < 50 and hist[-1] == hist[-3] != hist[-2]
        assert kpdtm_objective(centers, pts) == hist[-1]

    @pytest.mark.parametrize("case", ["cohort_502x2", "d3", "half_grid_2d", "k_equals_n"])
    def test_self_stopped_fit_scores_last_objective(self, case):
        build, q, k, _ = ORACLE_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        stopped = 0
        for seed in range(4):
            pts = build(rng)
            hist = []
            centers = kpdtm_fit(pts, MassParams(q, k, 50, seed), history=hist)
            if len(hist) < 50:
                assert kpdtm_objective(centers, pts) == hist[-1]
                stopped += 1
        assert stopped >= 3


def fit_bytes(fit, pts, params):
    """History, means, variances and point scores of one fit, as bytes."""
    hist = []
    centers = fit(pts, params, history=hist)
    return (np.array(hist).tobytes(), centers.means.tobytes(), centers.variances.tobytes(),
            centers._scores.tobytes())


class TestBlockedStats:
    """The compiled neighbour statistics equal the numpy oracle, and the fit keeps no
    score matrix."""

    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("reverse", [True, False])
    @pytest.mark.parametrize("kind", ["gaussian", "half_grid"])
    def test_matches_one_shot_oracle(self, rows, reverse, kind):
        """A query's statistics do not depend on the queries handed to the same call
        before it: the compiled kernel gets the queries ``rows`` at a time (all at
        once for None), in reverse order or not, and still equals the oracle."""
        rng = np.random.default_rng(7)
        if kind == "gaussian":
            cloud = rng.normal(size=(502, 2))
            pool = np.vstack([cloud, rng.normal(size=(400, 2))])
        else:
            cloud = half_grid(rng, 200, 2)  # tied distances and duplicate points
            pool = half_grid(rng, 400, 2)
        for nq in (0, 1, 2, 3, 4, 63, 64, 65, 350):
            queries = pool[rng.choice(len(pool), size=nq, replace=False)]
            order = np.arange(nq)[::-1] if reverse else np.arange(nq)
            step = rows or max(nq, 1)
            blocks = [denoise._mass_stats(np.ascontiguousarray(queries[order[lo:lo + step]]),
                                          cloud, 10) for lo in range(0, max(nq, 1), step)]
            got = [np.concatenate(part)[order] for part in zip(*blocks)]  # order is its own inverse
            ref = _nearest_mass_stats(queries, cloud, 10)
            assert got[0].shape == ref[0].shape and got[1].shape == ref[1].shape
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()

    def test_profile_over_several_blocks_matches_brute(self, rng):
        pts = rng.normal(size=(150, 3))
        queries = rng.normal(size=(300, 3))
        vals = dtm_profile(pts, queries, 6)
        for query, val in zip(queries, vals):
            assert val == pytest.approx(brute_dtm(pts, query, 6), abs=1e-10)

    def test_fit_allocates_no_score_matrix(self):
        n, k = 502, 350
        pts = np.random.default_rng(3).normal(size=(n, 2))
        params = MassParams(10, k, 50, 0)
        kpdtm_fit(pts, params)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            kpdtm_fit(pts, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the centers, the scores and the history: an eighth of one k x n score matrix
        assert peak < n * k


def nan_blind(raw: bytes) -> bytes:
    """float64 bytes with every NaN made numpy's: C and numpy can give a NaN opposite
    signs."""
    x = np.frombuffer(raw)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def oracle_profile(cloud, queries, q):
    """``dtm_profile`` from the stable-sort oracle's neighbour statistics."""
    m, v = _nearest_mass_stats(queries, cloud, q)
    return ((queries - m) ** 2).sum(axis=1) + v


class TestGrid:
    """The grid searches of the compiled neighbour query and center assignment equal
    the stable-sort oracles where the grid is degenerate or the query lies off it."""

    @pytest.mark.parametrize("case", sorted(EDGE_CLOUDS))
    def test_matches_oracles_on_degenerate_and_overflowing_clouds(self, case):
        cloud = EDGE_CLOUDS[case]
        n = len(cloud)
        with np.errstate(over="ignore", invalid="ignore"):
            for q in sorted({1, 2, n // 2, n - 1, n}):
                assert nan_blind(dtm_profile(cloud, cloud, q).tobytes()) == \
                    nan_blind(oracle_profile(cloud, cloud, q).tobytes())
                for k in sorted({1, n // 3, n}):
                    params = MassParams(q, k, 20, q + k)
                    got = fit_bytes(kpdtm_fit, cloud, params)
                    ref = fit_bytes(full_recompute_fit, cloud, params)
                    assert list(map(nan_blind, got)) == list(map(nan_blind, ref))

    @pytest.mark.parametrize("d", [1, 2])
    def test_queries_off_the_cloud_and_on_cell_edges(self, d):
        cloud = half_grid(np.random.default_rng(29 + d), 60, d)
        # the interior cell edges lo + c * h, as _kernels.c places them for 30 cells
        lo, w, cells = cloud.min(axis=0), np.ptp(cloud, axis=0), len(cloud) // 2
        h = max(np.sqrt(np.prod(w) / cells) if d == 2 else 0.0, w.max() / cells)
        edges = [lo[x] + np.arange(1, int(w[x] / h) + 1) * h for x in range(d)]
        far = [-1e200, -1e6, -10.0, 10.0, 1e6, 1e200]
        queries = np.array([*itertools.product(*edges), *itertools.product(far, repeat=d),
                            *itertools.product(far + [0.0], [0.0] * (d - 1))])
        assert len(queries) > 10 * d
        with np.errstate(over="ignore"):
            for q in (1, 4, 60):
                assert dtm_profile(cloud, queries, q).tobytes() == \
                    oracle_profile(cloud, queries, q).tobytes()

    def test_points_beside_cell_edges(self):
        # 1-D clouds of 2m points: the ends, and the floats either side of each interior
        # edge lo + c * h, h = (hi - lo) / m; each query mirrors one of them across its
        # edge.  A point placed by the estimate (x - lo) / h alone can land on the wrong
        # side of an edge, and the gap to its cell then overshoots its distance.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            cells = int(rng.integers(3, 12))
            lo, hi = np.sort(rng.uniform(-3, 3, size=2))
            edges = lo + np.arange(1, cells) * ((hi - lo) / cells)
            beside = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
            cloud = np.concatenate([[lo, hi], *beside])[rng.permutation(2 * cells)][:, None]
            queries = np.concatenate([2 * edges - b for b in beside])[:, None]
            for q in (1, 2, 3):
                assert dtm_profile(cloud, queries, q).tobytes() == \
                    oracle_profile(cloud, queries, q).tobytes()

    def test_non_finite_queries_give_nan_or_inf(self):
        cloud = half_grid(np.random.default_rng(31), 40, 2)
        nan, inf = np.nan, np.inf
        queries = [[nan, 0], [0, nan], [nan, inf], [inf, 0], [-inf, 0], [0, inf], [0, -inf],
                   [inf, -inf]]
        for q in (1, 5, 40):
            assert np.array_equal(dtm_profile(cloud, queries, q), [nan] * 3 + [inf] * 5,
                                  equal_nan=True)
            assert np.array_equal(dtm_profile(cloud[:, :1], [[nan], [inf], [-inf]], q),
                                  [nan, inf, inf], equal_nan=True)


class TestInitialDraw:
    """The initial centers are drawn once per (n, k, seed) and shared read-only."""

    def test_equal_to_a_fresh_draw_and_read_only(self):
        for n, k, seed in [(502, 350, 0), (502, 350, 1), (60, 60, 0), (502, 1, 3)]:
            idx = denoise._initial_draw(n, k, seed)
            assert denoise._initial_draw(n, k, seed) is idx
            fresh = np.random.default_rng(seed).choice(n, size=k, replace=False)
            assert idx.tobytes() == fresh.tobytes() and idx.dtype == fresh.dtype
            assert not idx.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 0

    @pytest.mark.parametrize("case", ["cohort_502x2", "half_grid_2d", "q_and_k_equal_n"])
    def test_fit_equal_with_cold_and_warm_cache(self, case):
        build, q, k, max_iter = ORACLE_CASES[case]
        pts = build(np.random.default_rng(sum(map(ord, case)) + 3))
        params = MassParams(q, k, max_iter, 0)
        denoise._initial_draw.cache_clear()
        cold = fit_bytes(kpdtm_fit, pts, params)
        warm = fit_bytes(kpdtm_fit, pts, params)
        assert denoise._initial_draw.cache_info().hits == 1
        assert cold == warm


class TestKpdtmEval:
    def test_single_center_identity(self):
        centers = CenterSet(np.array([[1.0, 2.0]]), np.array([0.0]))
        assert kpdtm_eval(centers, np.array([1.0, 2.0])) == 0.0

    def test_reduces_to_dtm_at_k_equals_n(self, rng):
        pts = rng.normal(size=(25, 2))
        centers = kpdtm_fit(pts, MassParams(1, 25, 50, 0))
        for p in pts:
            assert kpdtm_eval(centers, p) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_everywhere(self, rng):
        pts = rng.normal(size=(50, 3))
        centers = kpdtm_fit(pts, MassParams(5, 8, 50, 1))
        queries = rng.normal(size=(100, 3)) * 3
        assert np.all(kpdtm_eval(centers, queries) >= 0)

    def test_noisy_circle_tracks_dtm(self, rng):
        theta = rng.uniform(0, 2 * np.pi, 500)
        pts = np.c_[np.cos(theta), np.sin(theta)] + 0.1 * rng.normal(size=(500, 2))
        centers = kpdtm_fit(pts, MassParams(10, 100, 50, 7))
        approx = kpdtm_eval(centers, pts)
        exact = dtm_profile(pts, pts, 10)
        corr = np.corrcoef(approx, exact)[0, 1]
        assert corr >= 0.9

    @pytest.mark.parametrize("query", [[1.0, 1.0, 5.0, 5.0], np.ones((3, 4)), [1.0]],
                             ids=["point", "block", "short"])
    def test_query_of_another_dimension_rejected(self, query):
        centers = CenterSet(np.array([[1.0, 1.0], [5.0, 5.0]]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="queries have [14] coordinates, the cloud 2"):
            kpdtm_eval(centers, np.asarray(query))
        assert kpdtm_eval(centers, [5.0, 5.0]) == 2.0
        assert kpdtm_eval(centers, np.ones((3, 2))).shape == (3,)


class TestPruneCloud:
    def test_identity_at_full_keep(self, rng):
        cloud = PointCloud(rng.normal(size=(40, 2)), time_index=np.arange(40))
        out = prune_cloud(cloud, MassParams(5, 10, 50, 0), 40)
        assert np.array_equal(out.points, cloud.points)
        assert np.array_equal(out.time_index, cloud.time_index)

    def test_subset_and_size(self, rng):
        cloud = PointCloud(rng.normal(size=(60, 2)), time_index=np.arange(60))
        out = prune_cloud(cloud, MassParams(5, 10, 50, 0), 25)
        assert len(out) == 25
        rows = {tuple(p) for p in out.points}
        assert rows <= {tuple(p) for p in cloud.points}
        assert np.all(np.diff(out.time_index) > 0)

    def test_idempotent(self, rng):
        cloud = PointCloud(rng.normal(size=(60, 2)), time_index=np.arange(60))
        params = MassParams(5, 10, 50, 0)
        once = prune_cloud(cloud, params, 30)
        twice = prune_cloud(once, params, 30)
        assert np.array_equal(once.points, twice.points)

    def test_blob_points_removed_first(self):
        spec = SynthSpec("circle_plus_blob", 140, noise_level=0.12, seed=42, n2=400)
        cloud, labels = gen_cloud(spec)
        params = MassParams(20, 100, 50, 11)
        pruned = prune_cloud(cloud, params, 140)
        kept_labels = labels[pruned.time_index]
        assert np.mean(kept_labels == "circle") >= 0.9
        # brute-force confirmation that blob points carry the smallest scores
        scores = np.array([brute_dtm(cloud.points, p, 20) for p in cloud.points])
        circle_median = np.median(scores[labels == "circle"])
        blob_median = np.median(scores[labels == "blob"])
        assert blob_median < circle_median

    def test_bad_keep_n(self, rng):
        cloud = PointCloud(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            prune_cloud(cloud, MassParams(2, 3, 10, 0), 0)
        with pytest.raises(ValueError):
            prune_cloud(cloud, MassParams(2, 3, 10, 0), 11)


class TestRemapMultichannel:
    def make_clouds(self, rng, n_channels=3, n=50, m=2):
        ti = np.arange(n)
        return [PointCloud(rng.normal(size=(n, m)), time_index=ti.copy())
                for _ in range(n_channels)]

    def test_single_channel_equals_prune(self, rng):
        clouds = self.make_clouds(rng, n_channels=1)
        params = MassParams(5, 10, 50, 0)
        joint = remap_multichannel(clouds, 20, params)
        pruned = prune_cloud(clouds[0], params, 20)
        assert np.array_equal(joint.time_index, pruned.time_index)
        assert np.array_equal(joint.points, pruned.points)

    def test_identical_channels_match_single(self, rng):
        clouds = self.make_clouds(rng, n_channels=1)
        twin = [clouds[0], PointCloud(clouds[0].points.copy(), clouds[0].time_index.copy())]
        params = MassParams(5, 10, 50, 0)
        single = remap_multichannel(clouds, 20, params)
        double = remap_multichannel(twin, 20, params)
        assert np.array_equal(single.time_index, double.time_index)

    def test_joint_dimension(self, rng):
        clouds = self.make_clouds(rng, n_channels=6, n=200, m=2)
        joint = remap_multichannel(clouds, 140, MassParams(10, 50, 50, 0))
        assert joint.points.shape == (140, 12)

    def test_mismatched_time_index(self, rng):
        a = PointCloud(rng.normal(size=(30, 2)), time_index=np.arange(30))
        b = PointCloud(rng.normal(size=(30, 2)), time_index=np.arange(1, 31))
        with pytest.raises(ValueError, match="mismatched time_index"):
            remap_multichannel([a, b], 10, MassParams(3, 5, 10, 0))

    @pytest.mark.parametrize("keep_n", [0, -3])
    def test_bad_keep_n(self, rng, keep_n):
        clouds = self.make_clouds(rng, n_channels=2, n=30)
        with pytest.raises(ValueError, match="keep_n"):
            remap_multichannel(clouds, keep_n, MassParams(3, 5, 10, 0))

    def test_deterministic(self, rng):
        clouds = self.make_clouds(rng)
        params = MassParams(5, 10, 50, 3)
        j1 = remap_multichannel(clouds, 20, params)
        j2 = remap_multichannel(clouds, 20, params)
        assert np.array_equal(j1.points, j2.points)


def recomputed_scores(cloud, params):
    """Oracle: fit, then score every cloud point again with ``kpdtm_eval``."""
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    return np.asarray(kpdtm_eval(kpdtm_fit(cloud, params), pts))


def keep_largest_oracle(scores, keep_n):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return np.array(sorted(order[:keep_n]), dtype=int)


class TestFitScoresReuse:
    """Pruning reads its scores from the fit instead of evaluating the centers again."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_fit_scores_equal_eval(self, case):
        build, q, k, max_iter = ORACLE_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)) + 1)
        for seed in range(3):
            pts = build(rng)
            params = MassParams(q, k, max_iter, seed)
            assert _fit_scores(pts, params).tobytes() == recomputed_scores(pts, params).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_prune_cloud_matches_recompute_oracle(self, d):
        rng = np.random.default_rng(40 + d)
        for seed in range(4):
            n = 60
            cloud = PointCloud(half_grid(rng, n, d), time_index=np.arange(0, 2 * n, 2))
            params = MassParams(4, 25, (1, 2, 50, 50)[seed], seed)
            kept = keep_largest_oracle(recomputed_scores(cloud, params), 35)
            got = prune_cloud(cloud, params, 35)
            assert got.points.tobytes() == cloud.points[kept].tobytes()
            assert np.array_equal(got.time_index, cloud.time_index[kept])

    @pytest.mark.parametrize("max_iter", [1, 2, 50])
    def test_remap_matches_recompute_oracle(self, max_iter):
        rng = np.random.default_rng(50 + max_iter)
        n, ti = 70, np.arange(3, 73)
        clouds = [PointCloud(half_grid(rng, n, 2), time_index=ti) for _ in range(4)]
        params = MassParams(5, 30, max_iter, 2)
        scores = sum(recomputed_scores(c, params) for c in clouds) / len(clouds)
        kept = keep_largest_oracle(scores, 40)
        joint = remap_multichannel(clouds, 40, params)
        assert joint.points.tobytes() == np.hstack([c.points[kept] for c in clouds]).tobytes()
        assert np.array_equal(joint.time_index, ti[kept])


REMAP_IN_CHILD = """
import hashlib, sys
import numpy as np
from topofeat import denoise
from topofeat.embedding import EmbeddingParams, delay_embed
rng = np.random.default_rng(0)
t = np.arange(512)
clouds = [delay_embed(np.sin(2 * np.pi * t / rng.uniform(20, 80)) + 0.3 * rng.normal(size=512),
                      EmbeddingParams(2, 10)) for _ in range(6)]
params = denoise.MassParams(10, 350, 50, 0)
digest = hashlib.sha256()
for cloud in clouds:
    digest.update(denoise._fit_scores(cloud, params).tobytes())
joint = denoise.remap_multichannel(clouds, 140, params)
digest.update(joint.points.tobytes() + joint.time_index.tobytes())
print(digest.hexdigest())
"""


def test_remap_does_not_depend_on_numpy_dispatch_or_blas():
    """Six fixed 502 x 2 channel clouds give the same scores and joint cloud with
    numpy's dispatched SIMD kernels on, with every one of them off, and with
    OpenBLAS held to its oldest x86 kernel."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    on = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    digests = [child_stdout(REMAP_IN_CHILD, env)
               for env in ({}, {"NPY_DISABLE_CPU_FEATURES": on},
                           {"OPENBLAS_CORETYPE": "Prescott"})]
    assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]
