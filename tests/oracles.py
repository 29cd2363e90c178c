"""Oracles the compiled kernels are tested against, and the data tables the test
modules share.  No package code imports this module.

Homology:

* ``rips_filtration`` lists the Rips filtration explicitly, and
  ``compute_persistence`` runs the textbook boundary-matrix reduction over
  GF(2) on it.  It works for any sorted complex of simplices up to
  dimension 2.
* ``brute_force_betti`` shares no reduction code with either route; Betti
  numbers come straight from GF(2) ranks of dense boundary matrices, so it
  can sit on the other side of an equivalence test.

:func:`topofeat.homology.rips_diagram` is the pipeline's one homology route:
one compiled call of ``_kernels.c`` orders its edges, ranks them, sweeps H0
and reduces H1.  Nothing here runs in it, and nothing here is compiled, so
the suite can hold its diagrams against both routes.

k-PDTM, one numpy oracle per compiled kernel:

* ``_nearest_mass_stats`` for ``mass_stats``: per query, the centroid of its
  q nearest cloud points and their mean squared spread.
* ``full_recompute_fit`` for ``kpdtm_fit``: every occupied center refreshed
  and every point rescored at each iteration.

SVM:

* ``textbook_train_svm`` for ``train_svm``: the textbook simplified SMO loop on
  Python floats, which recomputes each error term at every use and sums it
  in the documented order (``fixed_order_dot``, with the exact ``fma``), so
  its bits depend on no BLAS kernel and no CPU.

``child_stdout`` runs a script in a fresh Python under other environment
settings, for the tests that hold an output fixed across numpy's dispatch
and OpenBLAS's kernels.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

import topofeat
from topofeat.classify import SMO_TOL, LabeledDataset, SvmModel, _kernel_matrix
from topofeat.cloud import as_points
from topofeat.denoise import CenterSet, kpdtm_eval
from topofeat.homology import INF, PersistenceDiagram


@dataclass(frozen=True)
class FiltrationSimplex:
    """A simplex (1-3 vertices) tagged with the scale at which it appears."""

    vertices: tuple[int, ...]
    value: float

    def __post_init__(self):
        if not 1 <= len(self.vertices) <= 3:
            raise ValueError("only vertices, edges and triangles are supported")
        if any(b <= a for a, b in zip(self.vertices, self.vertices[1:])):
            raise ValueError(f"vertices must be strictly increasing: {self.vertices}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def sort_key(self):
        return (self.value, self.dim, self.vertices)


def rips_filtration(points: np.ndarray, max_scale: float, max_dim: int = 2) -> list[FiltrationSimplex]:
    """Explicit Rips filtration, sorted by (value, dimension, vertices).

    Vertices appear at 0, an edge {i,j} at d(i,j) when that is <= max_scale,
    a triangle at the largest of its three edge values.  ``max_dim`` caps the
    simplex dimension (0, 1 or 2).
    """
    pts = as_points(points)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if max_scale <= 0:
        raise ValueError("max_scale must be positive")
    if max_dim not in (0, 1, 2):
        raise ValueError("max_dim must be 0, 1 or 2")
    n = len(pts)
    simplices = [FiltrationSimplex((i,), 0.0) for i in range(n)]
    if max_dim >= 1 and n > 1:
        dmat = squareform(pdist(pts))
        for i in range(n):
            for j in range(i + 1, n):
                if dmat[i, j] <= max_scale:
                    simplices.append(FiltrationSimplex((i, j), float(dmat[i, j])))
        if max_dim == 2:
            for i in range(n):
                for j in range(i + 1, n):
                    if dmat[i, j] > max_scale:
                        continue
                    for k in range(j + 1, n):
                        val = max(dmat[i, j], dmat[i, k], dmat[j, k])
                        if val <= max_scale:
                            simplices.append(FiltrationSimplex((i, j, k), float(val)))
    simplices.sort(key=FiltrationSimplex.sort_key)
    return simplices


def _validate_filtration(simplices: Sequence[FiltrationSimplex]) -> dict[tuple[int, ...], int]:
    index = {}
    for pos, s in enumerate(simplices):
        if s.dim > 0:
            for drop in range(len(s.vertices)):
                face = s.vertices[:drop] + s.vertices[drop + 1:]
                fpos = index.get(face)
                if fpos is None:
                    raise ValueError(f"faces after cofaces: {face} missing before {s.vertices}")
        index[s.vertices] = pos
    return index


def compute_persistence(filtration: Sequence[FiltrationSimplex]) -> PersistenceDiagram:
    """Boundary-matrix reduction over GF(2) on a sorted filtration.

    H0 bars pair vertices with merging edges, H1 bars pair cycle-creating
    edges with the triangles that fill them.  Bars with birth == death are
    discarded; classes alive at the end of the filtration get death = +inf.
    Raises if a face appears after one of its cofaces.
    """
    simplices = list(filtration)
    index = _validate_filtration(simplices)

    pivot_owner: dict[int, int] = {}   # low row -> column holding it
    reduced: dict[int, int] = {}       # column -> bitmask after reduction
    pairs: list[tuple[int, int]] = []
    for j, s in enumerate(simplices):
        if s.dim == 0:
            continue
        col = 0
        for drop in range(len(s.vertices)):
            face = s.vertices[:drop] + s.vertices[drop + 1:]
            col ^= 1 << index[face]
        while col:
            low = col.bit_length() - 1
            owner = pivot_owner.get(low)
            if owner is None:
                pivot_owner[low] = j
                reduced[j] = col
                pairs.append((low, j))
                break
            col ^= reduced[owner]

    paired_rows = {i for i, _ in pairs}
    paired_cols = {j for _, j in pairs}
    feats = []
    for i, j in pairs:
        birth = simplices[i].value
        death = simplices[j].value
        if death > birth and simplices[i].dim <= 1:
            feats.append((simplices[i].dim, birth, death))
    for j, s in enumerate(simplices):
        if s.dim <= 1 and j not in paired_rows and j not in paired_cols:
            # column reduced to zero and never killed: essential class
            if s.dim == 0 or (s.dim == 1 and reduced.get(j) is None):
                feats.append((s.dim, s.value, INF))
    return PersistenceDiagram(feats)


ORACLE_VERTEX_CAP = 12


def gf2_rank(mat: np.ndarray) -> int:
    """Rank over the two-element field by plain Gaussian elimination."""
    m = (np.asarray(mat, dtype=np.uint8) & 1).copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, c])[0]
        hits = hits[hits != rank]
        m[hits] ^= m[rank]
        rank += 1
    return rank


def brute_force_betti(filtration, eps: float, dim: int) -> int:
    """Betti number at scale ``eps`` from full boundary-matrix ranks.

    Only complexes on at most 12 vertices are accepted; anything larger is
    outside the oracle's remit.
    """
    simplices = [s for s in filtration if s.value <= eps]
    verts = sorted({v for s in simplices for v in s.vertices})
    if len(verts) > ORACLE_VERTEX_CAP:
        raise ValueError("oracle scale exceeded")
    if dim not in (0, 1):
        raise ValueError("oracle computes dimensions 0 and 1 only")

    vid = {v: i for i, v in enumerate(verts)}
    edges = [s.vertices for s in simplices if s.dim == 1]
    tris = [s.vertices for s in simplices if s.dim == 2]
    eid = {e: i for i, e in enumerate(edges)}

    d1 = np.zeros((len(verts), len(edges)), dtype=np.uint8)
    for j, (a, b) in enumerate(edges):
        d1[vid[a], j] = 1
        d1[vid[b], j] = 1
    d2 = np.zeros((len(edges), len(tris)), dtype=np.uint8)
    for j, (a, b, c) in enumerate(tris):
        d2[eid[(a, b)], j] = 1
        d2[eid[(a, c)], j] = 1
        d2[eid[(b, c)], j] = 1

    rank_d1 = gf2_rank(d1) if edges else 0
    if dim == 0:
        return len(verts) - rank_d1
    rank_d2 = gf2_rank(d2) if tris else 0
    return (len(edges) - rank_d1) - rank_d2


def _nearest_mass_stats(queries, cloud, q):
    """numpy oracle for the compiled neighbour statistics: per query, the centroid of
    its q nearest cloud points and their mean squared spread.

    Neighbours are chosen by (squared distance, point index) with a stable sort.
    The means and spreads are ``ndarray.mean``'s arithmetic without its Python
    wrapper.
    """
    d2 = cdist(queries, cloud, metric="sqeuclidean")
    idx = np.argsort(d2, axis=1, kind="stable")[:, :q]
    neigh = cloud[idx]                       # (queries, q, d), a fresh copy
    means = np.add.reduce(neigh, axis=1)     # (queries, d)
    means /= q
    neigh -= means[:, None, :]
    np.square(neigh, out=neigh)
    spread = np.add.reduce(np.add.reduce(neigh, axis=2), axis=1)
    spread /= q
    return means, spread


def full_recompute_fit(pts, params, history=None):
    """k-PDTM oracle that rescores and refreshes every occupied center each iteration.

    Like ``kpdtm_fit``, it leaves the score of every point under the final centers
    in ``_scores``.
    """
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    q, k = params.n_neighbors, params.n_centers
    rng = np.random.default_rng(params.seed)
    init = rng.choice(n, size=k, replace=False)
    means, variances = _nearest_mass_stats(pts[init], pts, q)

    before = last = last_obj = None
    for _ in range(params.max_iter):
        score = cdist(pts, means, metric="sqeuclidean") + variances[None, :]
        assign = np.argmin(score, axis=1)
        obj = float(score[np.arange(n), assign].sum())
        if history is not None:
            history.append(obj)
        if last is not None and (np.array_equal(assign, last) or obj == last_obj):
            break
        if before is not None and np.array_equal(assign, before):
            break  # a 2-cycle
        before, last, last_obj = last, assign, obj
        counts = np.bincount(assign, minlength=k)
        occupied = np.nonzero(counts > 0)[0]
        sums = np.column_stack([
            np.bincount(assign, weights=pts[:, dim], minlength=k) for dim in range(pts.shape[1])
        ])
        centroids = sums[occupied] / counts[occupied, None]
        new_means, new_vars = _nearest_mass_stats(centroids, pts, q)
        means = means.copy()
        variances = variances.copy()
        means[occupied] = new_means
        variances[occupied] = new_vars
    centers = CenterSet(means, variances)
    centers._scores = (cdist(pts, means, "sqeuclidean") + variances).min(axis=1)
    return centers


def kpdtm_objective(centers, cloud):
    """Summed min-over-centers score of every cloud point: the objective a fit's history
    must end on."""
    return float(np.sum(kpdtm_eval(centers, as_points(cloud))))


def fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as C's ``fma`` (Python 3.11 has no ``math.fma``).

    The exact value is ``Fraction(a) * Fraction(b) + Fraction(c)``, here over
    a power-of-two denominator left unreduced, and int division rounds it
    correctly, as ``float(Fraction)`` does.
    """
    (na, da), (nb, db), (nc, dc) = (v.as_integer_ratio() for v in (a, b, c))
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def fixed_order_dot(ay: list, col: list) -> float:
    """``ay . col`` in the documented order: blocks of four rounded products
    into two sums, ``t1 += m1 + m3`` and ``t2 += m2 + m4``, then the tail
    fused into ``t1``, then ``t1 + t2``."""
    t1 = t2 = 0.0
    top = len(ay) - len(ay) % 4
    for r in range(0, top, 4):
        t1 += col[r] * ay[r] + col[r + 2] * ay[r + 2]
        t2 += col[r + 1] * ay[r + 1] + col[r + 3] * ay[r + 3]
    for r in range(top, len(ay)):
        t1 = fma(col[r], ay[r], t1)
    return t1 + t2


def textbook_train_svm(data: LabeledDataset, kernel: str = "rbf", C: float = 1.0,
                       gamma: float | None = None, max_passes: int = 8, max_iter: int = 2000,
                       seed: int = 0) -> SvmModel:
    """Textbook simplified SMO on Python floats, the oracle of ``train_svm``.

    Each error term ``E_i = (alphas * y) . k[:, i] + b - y_i`` is recomputed
    every time it is used, with ``fixed_order_dot`` over the Gram matrix's
    column, so no BLAS kernel sets its bits.  ``train_svm`` keeps an error
    term until the next pair update and must return the same fit bit for bit.
    """
    x = data.features
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    n, d = z.shape
    if gamma is None:
        gamma = 1.0 / d
    y = np.where(data.labels == 1, 1.0, -1.0).tolist()
    k = _kernel_matrix(z, z, kernel, gamma)
    rows, cols = k.tolist(), k.T.tolist()

    rng = np.random.default_rng(seed)
    alphas = [0.0] * n
    ay = [0.0 * yr for yr in y]  # alphas * y, with numpy's -0.0 where y is -1
    b = 0.0
    passes = 0
    it = 0
    while passes < max_passes and it < max_iter:
        changed = 0
        for i in range(n):
            ei = fixed_order_dot(ay, cols[i]) + b - y[i]
            if (y[i] * ei < -SMO_TOL and alphas[i] < C) or (y[i] * ei > SMO_TOL and alphas[i] > 0):
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                ej = fixed_order_dot(ay, cols[j]) + b - y[j]
                ai_old, aj_old = alphas[i], alphas[j]
                if y[i] == y[j]:
                    lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
                else:
                    lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
                if hi - lo < 1e-12:
                    continue
                ki, kj = rows[i], rows[j]
                eta = 2 * ki[j] - ki[i] - kj[j]
                if eta >= 0:
                    continue
                aj = min(hi, max(lo, aj_old - y[j] * (ei - ej) / eta))
                if abs(aj - aj_old) < 1e-7:
                    continue
                ai = ai_old + y[i] * y[j] * (aj_old - aj)
                alphas[i], alphas[j] = ai, aj
                ay[i], ay[j] = ai * y[i], aj * y[j]
                b1 = b - ei - y[i] * (ai - ai_old) * ki[i] - y[j] * (aj - aj_old) * ki[j]
                b2 = b - ej - y[i] * (ai - ai_old) * ki[j] - y[j] * (aj - aj_old) * kj[j]
                if 0 < ai < C:
                    b = b1
                elif 0 < aj < C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
        it += 1
        passes = passes + 1 if changed == 0 else 0

    a = np.array(alphas)
    support = a > 1e-10
    return SvmModel(z[support], np.array(y)[support], a[support], b, kernel, gamma, mean, std)


# The settings the children vary; ``child_stdout`` drops the suite's own, so
# ``env={}`` means the machine's defaults under any of them.
MACHINE_SETTINGS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def child_stdout(script: str, env: dict[str, str]) -> str:
    """What ``script`` prints when a fresh Python runs it with ``env`` added to
    the environment; it imports this checkout's package and this module."""
    path = os.pathsep.join([str(Path(topofeat.__file__).parents[1]), str(Path(__file__).parent)])
    base = {k: v for k, v in os.environ.items() if k not in MACHINE_SETTINGS}
    return subprocess.run([sys.executable, "-c", script], env={**base, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, check=True, timeout=300).stdout


# Clouds whose spans the grid of _kernels.c guards: one point repeated, a line along
# each axis, one axis with duplicates, and spans that overflow to +inf.  In the last,
# the pairwise neighbour sums of +-1e308 give some centers NaN means and scores, which
# numpy's argmin puts first, beside centers with finite means on a grid of many cells.
EDGE_CLOUDS = {
    "all_equal": np.tile([0.5, -1.0], (20, 1)),
    "horizontal_line": np.c_[np.arange(20) / 2.0, np.full(20, 3.0)],
    "vertical_line": np.c_[np.full(20, -2.0), np.arange(20) / 4.0],
    "d1": (np.arange(30) % 7 / 2.0)[:, None],
    "overflowing_span_1d": np.array([[-1e308], [1e308], [0.0], [1.0], [2.0]]),
    "overflowing_span_2d": np.array([[-1e308, -1e308], [1e308, 1e308], [0.0, 0.0],
                                     [1.0, 1.0], [2.0, 2.0]]),
    "nan_means_1d": np.array([1e308, 1e308, 2.5, 4.0, 1e308, -1e308, -1e308, -1e308, 1.5, 1e308,
                              1.0, 0.5, 0.0, 3.5, 2.0, 3.0])[:, None],
}


# Floats whose text is easy to get wrong: both zeros, the smallest subnormal, a
# negated smallest normal, the largest finite float and inexact decimals
EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
               1e16, -1e-7, 123456789.123456789]


def two_clusters(rng, n=40, spread=0.3):
    xa = rng.normal(size=(n, 2)) * spread + [5.0, 5.0]
    xb = rng.normal(size=(n, 2)) * spread - [5.0, 5.0]
    return LabeledDataset(np.vstack([xa, xb]), np.array([1] * n + [0] * n))


def duplicate_rows():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(9, 6))
    return LabeledDataset(np.vstack([x, x]), np.array([0, 1, 1, 0, 1, 0, 0, 1, 1] * 2))


def constant_column():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(18, 5))
    x[:, 2] = 0.75
    y = np.array([0, 1] * 9)
    x[y == 1, 0] += 1.0
    return LabeledDataset(x, y)


def separable():
    rng = np.random.default_rng(13)
    return two_clusters(rng, n=10, spread=1.5)


def heavy_overlap():
    rng = np.random.default_rng(14)
    return LabeledDataset(rng.normal(size=(24, 6)), np.array([0, 1] * 12))


def wide():
    # 18 rows and many columns, like a training fold of persistence images
    rng = np.random.default_rng(16)
    return LabeledDataset(rng.normal(size=(18, 40)), np.array([0, 1] * 9))


def drawn_data(n: int, seed: int) -> LabeledDataset:
    """n rows with both classes, overlapping more or less, at a drawn scale."""
    rng = np.random.default_rng([n, seed])
    labels = rng.permutation(np.arange(n) % 2)
    x = rng.normal(size=(n, int(rng.integers(1, 8)))) * 10.0 ** rng.uniform(-6, 6)
    return LabeledDataset(x + labels[:, None] * rng.uniform(0, 3) * x.std(), labels)


# SVM training sets with the shapes that stress a fit: repeated rows, a constant
# column, wide margins, no margin and more columns than rows
ORACLE_DATA = {"duplicate_rows": duplicate_rows, "constant_column": constant_column,
               "separable": separable, "heavy_overlap": heavy_overlap, "wide": wide}
