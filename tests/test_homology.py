import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from topofeat import homology
from topofeat.homology import INF, PersistenceDiagram, betti_at, enclosing_radius, rips_diagram
from topofeat.reference import (FiltrationSimplex, brute_force_betti, compute_persistence,
                                rips_filtration)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def circle_points(n, radius=1.0):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return radius * np.c_[np.cos(th), np.sin(th)]


def materialised_reduce_h1(n, rank, over, ii, jj, n_cycle, cycle, fold, death):
    """Oracle for the compiled ``reduce_h1``, with its arguments: the textbook loop,
    latest cycle edge first, that builds every column and adds with numpy's
    ``setxor1d``, with no apparent or emergent shortcut.  The pairing is unique,
    so every column's death must be the compiled one."""
    verts = np.arange(n)

    def coboundary(e):
        a, b = int(ii[e]), int(jj[e])
        diam = np.maximum(np.maximum(rank[a], rank[b]), rank[a, b]).astype(np.int64)
        x, y, z = np.sort([np.full(n, a), np.full(n, b), verts], axis=0)
        keep = (diam < over) & (verts != a) & (verts != b)
        return np.sort((((diam * n + x) * n + y) * n + z)[keep])

    pivots = {}
    for c in reversed(range(n_cycle)):
        col = coboundary(cycle[c])
        while len(col) and int(col[0]) in pivots:
            col = np.setxor1d(col, pivots[int(col[0])], assume_unique=True)
        death[c] = col[0] // n ** 3 if len(col) else -1
        if len(col):
            pivots[int(col[0])] = col
    return 0


def union_find_kruskal(n, ii, jj):
    """Oracle for ``homology._kruskal_tree``: positions of the merging edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merging = []
    for e, (a, b) in enumerate(zip(ii.tolist(), jj.tolist())):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            merging.append(e)
    return merging


def joint_like_cloud(seed):
    """140 x 12 like the pipeline's joint clouds: six noisy sines, each in 2-D delay coordinates."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 8 * np.pi, 140))
    phases = rng.uniform(0, 2 * np.pi, 6)
    cols = [np.sin(t + p + lag) for p in phases for lag in (0.0, 0.8)]
    return np.column_stack(cols) + rng.normal(scale=0.3, size=(140, 12))


def cap_scale(monkeypatch, scale):
    """Make ``rips_diagram`` stop its filtration at ``scale`` where that is below the
    enclosing radius, so that it computes the diagram of a truncated filtration."""
    radius = homology.enclosing_radius
    monkeypatch.setattr(homology, "enclosing_radius", lambda dmat: min(scale, radius(dmat)))


def filtration_edges(pts, scale):
    """Edges up to ``scale`` in the refined filtration order, as ``rips_diagram`` lists them."""
    dmat = squareform(pdist(pts))
    ii, jj = np.nonzero(np.triu(dmat <= scale, k=1))
    order = np.lexsort((jj, ii, dmat[ii, jj]))
    return ii[order], jj[order]


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

    def test_matches_reference_route_capped_scale(self, monkeypatch):
        pts = circle_points(16)
        filt = rips_filtration(pts, max_scale=0.9)
        cap_scale(monkeypatch, 0.9)
        assert sorted(compute_persistence(filt).features) == sorted(rips_diagram(pts).features)

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


def union_find_tree(n, m, ii, jj, merging):
    """``union_find_kruskal`` with the compiled ``kruskal_tree``'s arguments."""
    found = union_find_kruskal(n, ii[:m], jj[:m])
    merging[:len(found)] = found
    return len(found)


ORACLE_LIBRARY = SimpleNamespace(reduce_h1=materialised_reduce_h1, kruskal_tree=union_find_tree)


class TestBufferedReduction:
    """The compiled reduction, with its buffered working column, gives the diagrams
    of the materialised loop."""

    # hundreds of additions per joint-like cloud, mostly into a pending buffer;
    # half-integer grids tie distances and duplicate points
    CLOUDS = ([joint_like_cloud(s) for s in (0, 1)] + [np.random.default_rng(7).normal(size=(140, 12))]
              + [np.random.default_rng(s).integers(0, 5, (60, 3)) / 2.0 for s in (9, 10, 11)])

    @pytest.fixture(scope="class")
    def expected(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_library", lambda: ORACLE_LIBRARY)
            return [rips_diagram(p).to_csv_text() for p in self.CLOUDS]

    @pytest.mark.parametrize("fold", [8, 1, 10**9])
    def test_matches_materialised_oracle(self, monkeypatch, expected, fold):
        # fold 1 keeps a buffer as large as the column, 10**9 folds every addend at once
        monkeypatch.setattr(homology, "_FOLD", fold)
        assert [rips_diagram(p).to_csv_text() for p in self.CLOUDS] == expected

    @given(n=st.integers(2, 25), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_route_on_drawn_grids(self, n, d, seed):
        pts = np.random.default_rng(seed).integers(-3, 4, size=(n, d)) / 2.0
        filt = rips_filtration(pts, max_scale=float(pdist(pts).max()) or 1.0)  # 0 if all coincide
        assert sorted(compute_persistence(filt).features) == sorted(rips_diagram(pts).features)


BUILD_AT_BARRIER = """
import sys, time
from pathlib import Path
from topofeat import homology
cache, barrier, name = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
homology._CACHE = cache
(barrier / name).touch()
while len(list(barrier.iterdir())) < 2:
    time.sleep(0.005)
assert homology.rips_diagram(homology.np.eye(4)).bars(0).shape == (4, 2)
"""


SANITIZED = """
import sys
from pathlib import Path
import numpy as np
from topofeat import homology
homology._CFLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                    "-shared", "-fPIC")
homology._CACHE = Path(sys.argv[1])
clouds = np.load(sys.argv[2])
texts = []
for fold in (8, 1, 10**9):
    homology._FOLD = fold
    texts.append([homology.rips_diagram(clouds[name]).to_csv_text() for name in clouds.files])
assert texts[0] == texts[1] == texts[2]
sys.stdout.write("".join(texts[0]))
"""


class TestBuild:
    """The library is built once per source and flags, into the cache directory."""

    def test_concurrent_builds_leave_one_library(self, tmp_path):
        cache, barrier = tmp_path / "cache", tmp_path / "barrier"
        barrier.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(homology.__file__).parents[1])}
        children = [subprocess.Popen([sys.executable, "-c", BUILD_AT_BARRIER, str(cache),
                                      str(barrier), name], env=env, stderr=subprocess.PIPE)
                    for name in ("a", "b")]
        errors = [child.communicate(timeout=300)[1].decode() for child in children]
        assert [child.returncode for child in children] == [0, 0], errors
        assert [p.suffix for p in cache.iterdir()] == [".so"]

    def test_missing_compiler_is_named_and_nothing_runs(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "no-such-gcc")
        monkeypatch.setattr(homology, "_CC", missing)
        monkeypatch.setattr(homology, "_CACHE", tmp_path / "cache")
        monkeypatch.setattr(homology, "_LIB", None)
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: pytest.fail("a compiler ran"))
        with pytest.raises(RuntimeError) as err:
            rips_diagram(SQUARE)
        assert missing in str(err.value) and str(homology._SOURCE) in str(err.value)
        assert not (tmp_path / "cache").exists()

    def test_edited_source_builds_a_new_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(homology, "_CACHE", tmp_path / "cache")
        old = homology._compiled()
        source = homology._SOURCE.read_bytes()
        edited = tmp_path / "_homology.c"
        edited.write_bytes(source.replace(b"Kruskal", b"kruskal", 1))  # one byte, in a comment
        monkeypatch.setattr(homology, "_SOURCE", edited)
        old.write_bytes(b"not a library")  # loading it would fail
        monkeypatch.setattr(homology, "_LIB", None)
        assert rips_diagram(SQUARE).to_csv_text() == compute_persistence(
            rips_filtration(SQUARE, max_scale=2.0)).to_csv_text()
        new = homology._compiled()
        assert new != old and homology._LIB._name == str(new)
        assert sorted((tmp_path / "cache").iterdir()) == sorted([old, new])

    def test_runs_clean_under_address_and_undefined_sanitizers(self, tmp_path):
        cc = shutil.which(homology._CC)
        runtimes = [subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                                   text=True).stdout.strip() if cc else ""
                    for name in ("libasan.so", "libubsan.so")]
        if not os.path.isfile(runtimes[0]):
            pytest.skip("gcc has no AddressSanitizer runtime")
        rng = np.random.default_rng(74)
        clouds = [joint_like_cloud(seed) for seed in range(3)] + [
            rng.integers(-3, 4, size=(int(rng.integers(2, 40)), int(rng.integers(1, 4)))) / 2.0
            for _ in range(100)]
        np.savez(tmp_path / "clouds.npz", *clouds)
        env = {**os.environ, "PYTHONPATH": str(Path(homology.__file__).parents[1]),
               "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0"}
        child = subprocess.run([sys.executable, "-c", SANITIZED, str(tmp_path / "cache"),
                                str(tmp_path / "clouds.npz")], env=env, capture_output=True,
                               text=True, timeout=600)
        assert child.returncode == 0, child.stderr[-4000:]
        assert child.stdout == "".join(rips_diagram(p).to_csv_text() for p in clouds)

    def test_source_compiles_without_warnings(self):
        cc = shutil.which(homology._CC)
        assert cc, f"no {homology._CC} on PATH"
        result = subprocess.run([cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                                 str(homology._SOURCE)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestKruskalTree:
    def test_matches_union_find_on_grids_with_duplicates(self):
        rng = np.random.default_rng(71)
        for trial in range(40):
            n = int(rng.integers(2, 40))
            pts = rng.integers(0, 3, (n, int(rng.integers(1, 4)))).astype(float)
            ii, jj = filtration_edges(pts, 1.0 + trial % 3)  # some caps disconnect
            if trial % 2:  # any insertion order, not only by length
                perm = rng.permutation(len(ii))
                ii, jj = ii[perm], jj[perm]
            assert homology._kruskal_tree(n, ii, jj).tolist() == union_find_kruskal(n, ii, jj)

    def test_cycle_edges_in_rips_diagram(self, monkeypatch):
        seen = []
        h1 = homology._h1_features

        def spy(dmat, ii, jj, vals, cycle):
            seen.append((len(dmat), ii, jj, cycle))
            return h1(dmat, ii, jj, vals, cycle)

        monkeypatch.setattr(homology, "_h1_features", spy)
        rng = np.random.default_rng(72)
        for _ in range(10):
            pts = rng.integers(0, 3, (int(rng.integers(5, 30)), 2)).astype(float)
            rips_diagram(pts)
            n, ii, jj, cycle = seen.pop()
            merging = set(union_find_kruskal(n, ii, jj))
            assert cycle.tolist() == [e for e in range(len(ii)) if e not in merging]

    def test_scale_below_smallest_gap_gives_n_essential_bars(self, rng, monkeypatch):
        pts = rng.normal(size=(12, 3))
        scale = float(pdist(pts).min()) / 2
        cap_scale(monkeypatch, scale)
        diagram = rips_diagram(pts)
        assert diagram.features == [(0, 0.0, INF)] * 12
        ref = compute_persistence(rips_filtration(pts, max_scale=scale))
        assert sorted(ref.features) == sorted(diagram.features)

    def test_two_clusters_keep_two_essential_bars(self, rng, monkeypatch):
        pts = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(8, 2)) + 50.0])
        cap_scale(monkeypatch, 20.0)
        diagram = rips_diagram(pts)
        ref = compute_persistence(rips_filtration(pts, max_scale=20.0))
        assert sorted(ref.features) == sorted(diagram.features)
        assert diagram.features.count((0, 0.0, INF)) == 2


def oracle_clouds():
    """Half-integer grids with duplicate points, then 140 x 12 joint-like clouds."""
    rng = np.random.default_rng(73)
    for i in range(12):
        n, d = int(rng.integers(5, 60)), int(rng.integers(1, 4))
        yield pytest.param(rng.integers(-3, 4, size=(n, d)) / 2.0, id=f"grid{i}_{n}x{d}")
    for seed in range(3):
        yield pytest.param(joint_like_cloud(seed), id=f"joint{seed}_140x12")


class TestEdgeOrderAndRanks:
    """The stable length sort and the distinct lengths equal the lexsort and
    ``np.unique``, the compiled reduction gets the int32 ``searchsorted`` ranks,
    and its deaths equal the textbook loop's, apparent pairs included."""

    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("pts", list(oracle_clouds()))
    def test_match_lexsort_unique_and_int64_pass(self, monkeypatch, pts, capped):
        seen = {}
        h1, library = homology._h1_features, homology._library()

        def spy_h1(dmat, ii, jj, vals, cycle):
            seen["edges"] = dmat, ii, jj, vals, cycle
            return h1(dmat, ii, jj, vals, cycle)

        def spy_reduce(n, rank, over, ii, jj, n_cycle, cycle, fold, death):
            failed = library.reduce_h1(n, rank, over, ii, jj, n_cycle, cycle, fold, death)
            expected = np.full(n_cycle, -2, dtype=np.int64)
            materialised_reduce_h1(n, rank, over, ii, jj, n_cycle, cycle, fold, expected)
            seen["reduce"] = rank, over, death, expected
            return failed

        monkeypatch.setattr(homology, "_h1_features", spy_h1)
        monkeypatch.setattr(homology, "_library", lambda: SimpleNamespace(
            reduce_h1=spy_reduce, kruskal_tree=library.kruskal_tree))
        scale = float(np.median(pdist(pts))) if capped else None
        if capped:
            cap_scale(monkeypatch, scale)
        rips_diagram(pts)
        dmat, ii, jj, vals, cycle = seen["edges"]
        ref_ii, ref_jj = filtration_edges(pts, min(scale or np.inf, enclosing_radius(dmat)))
        assert ii.tolist() == ref_ii.tolist() and jj.tolist() == ref_jj.tolist()
        assert vals.tobytes() == dmat[ref_ii, ref_jj].tobytes()
        uniq = np.unique(vals)
        rank, over, death, expected = seen["reduce"]
        assert rank.dtype == np.int32 and over == len(uniq)
        assert rank.tolist() == np.searchsorted(uniq, dmat).tolist()
        assert death.tolist() == expected.tolist()

    def test_grids_hold_ties_and_duplicates(self):
        grids = [p.values[0] for p in oracle_clouds() if p.id.startswith("grid")]
        assert any(len(np.unique(p, axis=0)) < len(p) for p in grids)
        assert all(len(np.unique(pdist(p))) < len(pdist(p)) for p in grids)


class TestBettiAt:
    def test_unit_square_at_1_2(self):
        diagram = rips_diagram(SQUARE)
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

    @pytest.mark.parametrize("birth, death", [(math.nan, 1.0), (math.nan, INF), (1.0, math.nan),
                                              (-INF, 1.0), (-INF, INF), (INF, INF)])
    def test_non_finite_birth_or_nan_rejected(self, birth, death):
        with pytest.raises(ValueError, match="birth must be finite and at most death"):
            PersistenceDiagram([(1, birth, death)])

    def test_nan_row_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("dim,birth,death\n0,0.0,inf\n1,nan,0.5\n")
        with pytest.raises(ValueError, match=r"\(1, nan, 0\.5\)"):
            PersistenceDiagram.from_csv(path)
