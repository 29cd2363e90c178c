import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (EDGE_CLOUDS, ORACLE_DATA, FiltrationSimplex, brute_force_betti,
                     compute_persistence, rips_filtration)
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from topofeat import _kernels, homology
from topofeat.classify import LabeledDataset, train_svm
from topofeat.denoise import MassParams, dtm_profile, kpdtm_fit
from topofeat.homology import INF, PersistenceDiagram, betti_at, enclosing_radius, rips_diagram

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def circle_points(n, radius=1.0):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return radius * np.c_[np.cos(th), np.sin(th)]


def materialised_reduce_h1(n, rank, over, ii, jj, n_cycle, cycle, death):
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


# 300 points of {0, 1, 2}^4: few distinct lengths, so long runs of tied keys
GRID300 = np.random.default_rng(300).integers(0, 3, (300, 4)).astype(float)


def binade_clouds():
    """Clouds whose lengths span hundreds of binades, so that the bit patterns the
    edge sort reads differ in every byte, the exponent's included: a 1-D ladder
    of halvings, a Gaussian with per-point scales 2^-500 to 2^500, and
    concentric octagons of radii 2^(-40 k), which hold H1 bars at five scales."""
    rng = np.random.default_rng(500)
    gaussian = rng.normal(size=(50, 3)) * 2.0 ** rng.integers(-500, 500, (50, 1))
    octagons = np.vstack([2.0 ** (-40 * k) * np.c_[np.cos(t), np.sin(t)] for k in range(5)
                          for t in [np.arange(8) * np.pi / 4 + rng.uniform(0, 2 * np.pi)]])
    return [3.7 * 2.0 ** -np.arange(60.0)[:, None], gaussian, octagons]


def union_find_kruskal(n, ii, jj):
    """Oracle for the Kruskal sweep: positions of the merging edges."""
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


def materialised_rips_diagram(pts, cap=None):
    """Oracle for ``rips_diagram``, built from the pieces above: the lexsort order of
    the edges up to ``cap`` or the enclosing radius, whichever is less, their
    ``np.unique`` ranks, ``union_find_kruskal`` and ``materialised_reduce_h1``, less
    the pairs that die at their birth."""
    n, dmat = len(pts), squareform(pdist(pts))
    ii, jj = filtration_edges(pts, min(np.inf if cap is None else cap, enclosing_radius(dmat)))
    vals = dmat[ii, jj]
    uniq = np.unique(vals)
    merging = union_find_kruskal(n, ii, jj)
    cycle = np.setdiff1d(np.arange(len(vals)), merging)
    death = np.empty(len(cycle), dtype=np.int64)
    materialised_reduce_h1(n, np.searchsorted(uniq, dmat), len(uniq), ii, jj, len(cycle), cycle,
                           death)
    deaths = np.where(death < 0, INF, uniq[death])
    return PersistenceDiagram(
        [(0, 0.0, vals[e]) for e in merging if vals[e] > 0.0] + [(0, 0.0, INF)] * (n - len(merging))
        + [(1, b, d) for b, d in zip(vals[cycle], deaths) if d > b])


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

    @pytest.mark.parametrize("kind", ["integer_grid", "lattice", "joint_dimension"])
    def test_matches_reference_route_with_ties_and_12d(self, kind):
        # integer grids tie distances and duplicate points; on a full lattice,
        # shuffled, many third vertices of an edge tie at the edge's own length,
        # where the apparent-pair scan stops; 12-D is the dimension of the
        # pipeline's joint clouds
        rng = np.random.default_rng(2404)
        for _ in range(20 if kind == "integer_grid" else 4):
            if kind == "integer_grid":
                n = int(rng.integers(5, 26))
                pts = rng.integers(0, 3, (n, int(rng.integers(2, 4)))).astype(float)
            elif kind == "lattice":
                shape = tuple(rng.integers(2, 5, size=int(rng.integers(2, 4))))
                pts = np.argwhere(np.ones(shape)).astype(float)[rng.permutation(np.prod(shape))]
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

    @pytest.mark.parametrize("case", ["overflowing_span_1d", "overflowing_span_2d"])
    def test_overflowing_distances_rejected(self, case):
        # finite coordinates, but the distance between the far points is +inf
        with pytest.raises(ValueError, match="finite"):
            rips_diagram(EDGE_CLOUDS[case])

    def test_single_point(self):
        assert rips_diagram(np.zeros((1, 3))).features == [(0, 0.0, INF)]

    @pytest.mark.parametrize("kind", ["joint_like", "half_integer_grid", "geometric"])
    def test_lengths_are_copied_pdist_floats(self, kind):
        # every finite positive birth and death is bit for bit a pairwise distance
        rng = np.random.default_rng(311)
        if kind == "joint_like":
            clouds = [joint_like_cloud(s) for s in (3, 4)]
        elif kind == "half_integer_grid":
            clouds = [rng.integers(-3, 4, (int(rng.integers(5, 60)), int(rng.integers(1, 4)))) / 2.0
                      for _ in range(10)]
        else:
            lattice = np.argwhere(np.ones((4, 4, 3))).astype(float)[rng.permutation(48)]
            clouds = [circle_points(30), lattice, *binade_clouds()]
        for pts in clouds:
            lengths = np.array([v for _, b, d in rips_diagram(pts).features for v in (b, d)
                                if 0.0 < v < INF])
            assert len(lengths) > 0
            assert set(lengths.view(np.uint64).tolist()) <= set(pdist(pts).view(np.uint64).tolist())

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


class TestBufferedReduction:
    """The compiled reduction, with its radix-heap working column and its reduced
    columns stored as edge sets, gives the diagrams of the materialised oracle."""

    # hundreds of additions per joint-like cloud; half-integer grids tie distances
    # and duplicate points; the 300 x 4 grid on {0, 1, 2} has few distinct lengths
    # and thousands of additions, as does the shuffled 5^3 lattice on a smaller
    # scale; in the 20-point Gaussian cloud a reduced column, stored as its edge
    # set, is added to a column reduced after it; the binade clouds' lengths differ
    # in their high bytes
    CLOUDS = ([joint_like_cloud(s) for s in (0, 1)] + [np.random.default_rng(7).normal(size=(140, 12))]
              + [np.random.default_rng(s).integers(0, 5, (60, 3)) / 2.0 for s in (9, 10, 11)]
              + [GRID300, np.argwhere(np.ones((5, 5, 5))).astype(float)[
                  np.random.default_rng(5).permutation(125)],
                 np.random.default_rng(209).normal(size=(20, 2))] + binade_clouds())

    # the diagram depends only on the order of the distances, so each cloud is
    # also matched at 8 times its size (an exact scaling) and at 10**9 times
    SCALES = [8, 1, 10**9]

    @pytest.fixture(scope="class")
    def expected(self):
        return {s: [materialised_rips_diagram(s * p).to_csv_text() for p in self.CLOUDS]
                for s in self.SCALES}

    @pytest.mark.parametrize("scale", SCALES)
    def test_matches_materialised_oracle(self, expected, scale):
        assert [rips_diagram(scale * p).to_csv_text() for p in self.CLOUDS] == expected[scale]

    @given(n=st.integers(2, 25), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_route_on_drawn_grids(self, n, d, seed):
        pts = np.random.default_rng(seed).integers(-3, 4, size=(n, d)) / 2.0
        filt = rips_filtration(pts, max_scale=float(pdist(pts).max()) or 1.0)  # 0 if all coincide
        assert sorted(compute_persistence(filt).features) == sorted(rips_diagram(pts).features)

    @given(n=st.integers(2, 25), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_features_are_sorted_on_drawn_grids(self, n, d, seed):
        # ties in distance give equal births and deaths, duplicates zero-length edges
        features = rips_diagram(np.random.default_rng(seed).integers(-3, 4, (n, d)) / 2.0).features
        assert features == sorted(features)


BUILD_AT_BARRIER = """
import sys, time
from pathlib import Path
from topofeat import _kernels, denoise, homology
cache, barrier, name = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
_kernels._CACHE = cache
(barrier / name).touch()
while len(list(barrier.iterdir())) < 2:
    time.sleep(0.005)
assert homology.rips_diagram(homology.np.eye(4)).bars(0).shape == (4, 2)
assert denoise.kpdtm_fit(homology.np.eye(4), denoise.MassParams(2, 2)).means.shape == (2, 4)
"""


def diagram_text(points):
    """The diagram's CSV text, or the message of the ValueError that refuses the cloud."""
    try:
        return rips_diagram(points).to_csv_text()
    except ValueError as exc:
        return f"{exc}\n"


SANITIZED = """
import sys
from pathlib import Path
import numpy as np
from topofeat import _kernels, classify, denoise, homology
_kernels._CFLAGS = ("-O1", "-g", "-fsanitize=address,undefined,float-cast-overflow",
                    "-fno-sanitize-recover=all", "-ffp-contract=off", "-shared", "-fPIC")
_kernels._CACHE = Path(sys.argv[1])
clouds = np.load(sys.argv[2])
for name in clouds.files:
    try:
        sys.stdout.write(homology.rips_diagram(clouds[name]).to_csv_text())
    except ValueError as exc:  # as diagram_text writes it
        sys.stdout.write(f"{exc}\\n")
for name in clouds.files:
    p, hist = clouds[name], []
    centers = denoise.kpdtm_fit(p, denoise.MassParams(min(5, len(p)), max(1, len(p) // 2), 20),
                                history=hist)
    off = np.vstack([p + 1e3, p * -1e6, np.full((3, p.shape[1]), [[np.inf], [-np.inf], [np.nan]])])
    profile = denoise.dtm_profile(p, off, min(3, len(p))).tolist()
    sys.stdout.write(repr((hist, centers.means.tolist(), centers._scores.tolist(), profile)))
svm_sets = np.load(sys.argv[3])
for i in range(0, len(svm_sets.files), 2):
    data = classify.LabeledDataset(svm_sets[f"arr_{i}"], svm_sets[f"arr_{i + 1}"])
    for kernel in ("rbf", "linear"):
        for C in (0.1, 1.0):  # 0.1 reaches the box bound
            m = classify.train_svm(data, kernel=kernel, C=C)
            sys.stdout.write(repr((m.alphas.tolist(), m.bias, m.sv_x.tolist(), m.sv_y.tolist())))
"""


class TestBuild:
    """The library of both kernels is built once per source and flags, into the cache
    directory."""

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
        monkeypatch.setattr(_kernels, "_CC", missing)
        monkeypatch.setattr(_kernels, "_CACHE", tmp_path / "cache")
        monkeypatch.setattr(_kernels, "_LIB", None)
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: pytest.fail("a compiler ran"))
        for call in (lambda: rips_diagram(SQUARE), lambda: kpdtm_fit(SQUARE, MassParams(2, 2)),
                     lambda: train_svm(LabeledDataset(SQUARE, [0, 1, 1, 0]))):
            with pytest.raises(RuntimeError) as err:
                call()
            assert missing in str(err.value) and str(_kernels._SOURCE) in str(err.value)
        assert _kernels._SOURCE.name == "_kernels.c" and not (tmp_path / "cache").exists()

    def test_edited_source_builds_a_new_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernels, "_CACHE", tmp_path / "cache")
        old = _kernels._compiled()
        source = _kernels._SOURCE.read_bytes()
        edited = tmp_path / "_kernels.c"
        edited.write_bytes(source + b"/* edited */\n")  # a comment line, appended
        monkeypatch.setattr(_kernels, "_SOURCE", edited)
        old.write_bytes(b"not a library")  # loading it would fail
        monkeypatch.setattr(_kernels, "_LIB", None)
        assert rips_diagram(SQUARE).to_csv_text() == compute_persistence(
            rips_filtration(SQUARE, max_scale=2.0)).to_csv_text()
        new = _kernels._compiled()
        assert new != old and _kernels._LIB._name == str(new)
        assert sorted((tmp_path / "cache").iterdir()) == sorted([old, new])

    def test_runs_clean_under_address_and_undefined_sanitizers(self, tmp_path):
        cc = shutil.which(_kernels._CC)
        runtimes = [subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                                   text=True).stdout.strip() if cc else ""
                    for name in ("libasan.so", "libubsan.so")]
        if not os.path.isfile(runtimes[0]):
            pytest.skip("gcc has no AddressSanitizer runtime")
        rng = np.random.default_rng(74)
        clouds = [joint_like_cloud(seed) for seed in range(3)] + [
            rng.integers(-3, 4, size=(int(rng.integers(2, 40)), int(rng.integers(1, 4)))) / 2.0
            for _ in range(100)] + list(EDGE_CLOUDS.values()) + [GRID300] + binade_clouds()
        np.savez(tmp_path / "clouds.npz", *clouds)
        # the ORACLE_DATA sets, and two rows, which draw no partner
        svm_sets = [make() for make in ORACLE_DATA.values()] + [
            LabeledDataset(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0, 1]))]
        np.savez(tmp_path / "svm.npz", *[a for d in svm_sets for a in (d.features, d.labels)])
        env = {**os.environ, "PYTHONPATH": str(Path(homology.__file__).parents[1]),
               "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0"}
        child = subprocess.run([sys.executable, "-c", SANITIZED, str(tmp_path / "cache"),
                                str(tmp_path / "clouds.npz"), str(tmp_path / "svm.npz")],
                               env=env, capture_output=True, text=True, timeout=600)
        assert child.returncode == 0, child.stderr[-4000:]
        fits = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p in clouds:
                hist = []
                centers = kpdtm_fit(p, MassParams(min(5, len(p)), max(1, len(p) // 2), 20),
                                    history=hist)
                off = np.vstack([p + 1e3, p * -1e6,
                                 np.full((3, p.shape[1]), [[np.inf], [-np.inf], [np.nan]])])
                profile = dtm_profile(p, off, min(3, len(p))).tolist()
                fits.append(repr((hist, centers.means.tolist(), centers._scores.tolist(), profile)))
        for data in svm_sets:
            for kernel in ("rbf", "linear"):
                for C in (0.1, 1.0):
                    m = train_svm(data, kernel=kernel, C=C)
                    fits.append(repr((m.alphas.tolist(), m.bias, m.sv_x.tolist(),
                                      m.sv_y.tolist())))
        assert child.stdout == "".join(map(diagram_text, clouds)) + "".join(fits)

    def test_source_compiles_without_warnings(self):
        # the build's own flags, so the warnings gcc emits only when
        # optimising (-Wmaybe-uninitialized among them) are checked too
        cc = shutil.which(_kernels._CC)
        assert cc, f"no {_kernels._CC} on PATH"
        result = subprocess.run([cc, *_kernels._CFLAGS, "-Wall", "-Wextra", "-Werror",
                                 "-o", os.devnull, str(_kernels._SOURCE)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestKruskalTree:
    def test_matches_union_find_on_grids_with_duplicates(self):
        rng = np.random.default_rng(71)
        for trial in range(40):
            n = int(rng.integers(2, 40))
            pts = rng.integers(0, 3, (n, int(rng.integers(1, 4)))).astype(float)
            scale = 1.0 + trial % 3  # some caps disconnect
            with pytest.MonkeyPatch.context() as mp:
                cap_scale(mp, scale)
                assert rips_diagram(pts).to_csv_text() == \
                    materialised_rips_diagram(pts, scale).to_csv_text()

    def test_cycle_edges_in_rips_diagram(self):
        # the edges off the tree are the columns that H1 reduces
        rng = np.random.default_rng(72)
        for _ in range(10):
            pts = rng.integers(0, 3, (int(rng.integers(5, 30)), 2)).astype(float)
            assert rips_diagram(pts).to_csv_text() == materialised_rips_diagram(pts).to_csv_text()

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
    """The compiled edge order, ranks, sweep and reduction give the diagram of the
    lexsort, ``np.unique``, union-find and textbook-loop oracle, apparent pairs
    included."""

    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("pts", list(oracle_clouds()))
    def test_match_lexsort_unique_and_int64_pass(self, monkeypatch, pts, capped):
        scale = float(np.median(pdist(pts))) if capped else None
        if capped:
            cap_scale(monkeypatch, scale)
        assert rips_diagram(pts).to_csv_text() == materialised_rips_diagram(pts, scale).to_csv_text()

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

    @pytest.mark.parametrize("dim", [0, 1])
    def test_nan_eps_rejected(self, dim):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            betti_at(rips_diagram(SQUARE), math.nan, dim)


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

    @given(st.randoms(use_true_random=False))
    def test_features_keep_one_order_whatever_the_input_order(self, random):
        features = [(1, 0.5, 2.0), (0, 0.0, INF), (1, 0.25, 0.5), (0, 0.0, 1.0), (1, 0.25, 0.5),
                    (1, 0.25, INF), (0, 0.0, 0.5), (1, 0.5, 1.0)]
        shuffled = random.sample(features, len(features))
        diagram = PersistenceDiagram(shuffled)
        assert diagram.features == sorted(features)
        assert diagram.to_csv_text() == PersistenceDiagram(features).to_csv_text()
        assert diagram == PersistenceDiagram(features)

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
