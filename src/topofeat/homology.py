"""Vietoris-Rips persistent homology in dimensions 0 and 1.

``rips_diagram`` follows Ripser (Bauer, arXiv:1908.02518) and never
materialises the triangle list.

* H0 is the Kruskal tree of the edge sequence: a union-find sweep over the
  edges in filtration order, ties and duplicate points included.  The edges
  off the tree close cycles.
* H1 reduces the coboundary columns of the cycle edges.  numpy hands the
  reduction only integers: the edges and an n x n table of diameter ranks,
  each vertex pair's rank among the distinct edge lengths.  The reduction
  owns the triangle key, one int64 of a triangle's diameter rank and then
  its sorted vertices.  One scan per cycle edge finds its earliest cofacet,
  and the edge pairs apparently when it is that cofacet's latest facet (as
  in Ripser++, arXiv:2003.07989).  The other columns are reduced latest
  edge first.  An edge whose earliest cofacet is still unclaimed forms an
  emergent pair.  Neither kind builds its column until another column must
  add it.  While a column is reduced, the columns added to it collect in a
  small sorted buffer, which is merged into the column only once it
  outgrows a fixed fraction of it; each new pivot is read off the two
  fronts.  Each death comes back as a diameter rank.

The Kruskal sweep and the column reduction are the two functions of
``_homology.c``.  The first diagram that needs them compiles that file with
gcc (``-O2``, no machine-specific or fast-math flags) into
``~/.cache/topofeat/``, keyed by the source and the flags, and loads it with
:mod:`ctypes`.  Without a working gcc, ``rips_diagram`` raises RuntimeError.
Distances, the edge order and the ranks stay in numpy, and the C code sees
no float, so the diagrams are those of the integer algorithm.

:mod:`topofeat.reference` holds the textbook boundary-matrix route and a
brute-force Betti oracle; the test suite checks ``rips_diagram`` against
both.

Conventions: Euclidean metric, vertices enter at scale 0, an edge at its
length, a triangle at its longest edge.  Simplices are ordered by
(scale, dimension, lexicographic vertices).  Zero-persistence pairs are
dropped from diagrams; unbounded classes carry death = +inf, written as
``inf`` in a diagram's :mod:`topofeat.fileio` table of ``dim,birth,death`` rows.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
from pathlib import Path
from typing import Iterable

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .cloud import as_points
from .fileio import format_table, read_table, write_atomic

INF = math.inf


class PersistenceDiagram:
    """Multiset of (dim, birth, death) features, death possibly +inf.

    A feature needs a finite birth at most its death, so NaN is rejected too.
    """

    def __init__(self, features: Iterable[tuple[int, float, float]] = ()):
        feats = []
        for dim, birth, death in features:
            feat = (int(dim), float(birth), float(death))
            if not (math.isfinite(feat[1]) and feat[1] <= feat[2]):
                raise ValueError(f"feature {feat}: birth must be finite and at most death")
            feats.append(feat)
        self.features: list[tuple[int, float, float]] = feats

    def __len__(self) -> int:
        return len(self.features)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return sorted(self.features) == sorted(other.features)

    def __repr__(self) -> str:
        counts = {d: sum(1 for f in self.features if f[0] == d) for d in (0, 1)}
        return f"PersistenceDiagram(h0={counts[0]}, h1={counts[1]})"

    def bars(self, dim: int) -> np.ndarray:
        """(birth, death) pairs of the given dimension as an (n, 2) array."""
        sel = [(b, d) for dm, b, d in self.features if dm == dim]
        return np.array(sel, dtype=float).reshape(-1, 2)

    def finite_bars(self, dim: int) -> np.ndarray:
        bars = self.bars(dim)
        return bars[np.isfinite(bars[:, 1])]

    def sorted_features(self) -> list[tuple[int, float, float]]:
        # stable on insertion order for equal (dim, birth, death)
        return sorted(self.features, key=lambda f: (f[0], f[1], f[2]))

    def to_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())

    def to_csv_text(self) -> str:
        """The ``dim,birth,death`` table of the sorted features, as ``to_csv`` writes it."""
        return format_table([("dim", "birth", "death"), *self.sorted_features()])

    @classmethod
    def from_csv(cls, path) -> "PersistenceDiagram":
        table = read_table(path, ints=("dim",))
        if table.header != ["dim", "birth", "death"]:
            raise ValueError("diagram CSV must start with header 'dim,birth,death'")
        v = table.values
        return cls(zip(v[0::3], v[1::3], v[2::3]))


def enclosing_radius(dmat: np.ndarray) -> float:
    """min over points of the max distance to any other point.

    At this scale the Rips complex is a cone, so no H1 class (and no H0
    merge) survives past it; capping there leaves diagrams unchanged.
    """
    return float(np.min(np.max(dmat, axis=1)))


# The integer loops live in one C file, compiled on first use into a library
# keyed by the source and the flags, so an edited source is never run stale.
_SOURCE = Path(__file__).with_name("_homology.c")
_CC = "gcc"
_CFLAGS = ("-O2", "-shared", "-fPIC")
_CACHE = Path.home() / ".cache" / "topofeat"
_LIB = None  # the loaded library, once a diagram needs it
_int64 = functools.partial(np.ascontiguousarray, dtype=np.int64)


def _compiled() -> Path:
    """The library built from ``_SOURCE``, compiling it into ``_CACHE`` if absent.

    The compiler writes a file named for this process, which then replaces
    the library in one step, so processes that build at once never see a
    partial file.  A missing or failing compiler raises RuntimeError.
    """
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _CACHE / f"_homology-{key}.so"
    if lib.exists():
        return lib
    cc = shutil.which(_CC)
    if cc is None:
        raise RuntimeError(f"C compiler {_CC!r} not found; it is needed to build {_SOURCE}")
    _CACHE.mkdir(mode=0o700, parents=True, exist_ok=True)
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(_SOURCE)], check=True,
                       capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        tmp.unlink(missing_ok=True)
        detail = getattr(exc, "stderr", None) or str(exc)
        raise RuntimeError(f"{cc} failed to build {_SOURCE}: {detail.strip()}") from exc
    os.replace(tmp, lib)
    return lib


def _library() -> ctypes.CDLL:
    """The compiled kernels, built and loaded on the first call of this process."""
    global _LIB
    if _LIB is None:
        lib = ctypes.CDLL(str(_compiled()))
        i64, ints = ctypes.c_int64, np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
        ranks = np.ctypeslib.ndpointer(np.int32, ndim=2, flags="C_CONTIGUOUS")
        lib.reduce_h1.argtypes = [i64, ranks, i64, ints, ints, i64, ints, i64, ints]
        lib.reduce_h1.restype = ctypes.c_int
        lib.kruskal_tree.argtypes = [i64, i64, ints, ints, ints]
        lib.kruskal_tree.restype = i64
        _LIB = lib
    return _LIB


def _kruskal_tree(n: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the edges that merge two components.

    A union-find sweep over the edges (ii[e], jj[e]) on vertices 0..n-1 in
    position order, whatever the edge lengths: Kruskal's forest of that order.
    """
    merging = np.empty(n - 1, dtype=np.int64)
    count = _library().kruskal_tree(n, len(ii), _int64(ii), _int64(jj), merging)
    if count < 0:
        raise MemoryError("out of memory in the Kruskal sweep")
    return merging[:count]


_FOLD = 8  # pending addends fold into the working column beyond 1/_FOLD of its size


def _h1_features(dmat: np.ndarray, ii: np.ndarray, jj: np.ndarray, vals: np.ndarray,
                 cycle: np.ndarray) -> list[tuple[int, float, float]]:
    """H1 bars by coboundary reduction over the cycle-edge columns.

    ``ii``, ``jj``, ``vals`` list every edge up to the scale cap, in
    filtration order; ``cycle`` indexes those that close a cycle (every
    other edge's column is cleared by its H0 pair).  The compiled reduction
    returns each death as the rank of a diameter among the distinct edge
    lengths, so it is read back as the exact ``dmat`` float.
    """
    n = len(dmat)
    distinct = np.empty(len(vals), dtype=bool)  # vals is sorted: keep each first copy
    distinct[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=distinct[1:])
    uniq = vals[distinct]
    over = len(uniq)  # rank of every distance above the cap
    if (over + 1) * n ** 3 >= 2 ** 63:
        raise ValueError("point cloud too large for int64 triangle keys")
    # rank[x, y] = np.searchsorted(uniq, dmat[x, y]), read off the edge list: an
    # edge's rank counts the distinct lengths before it, the diagonal's 0.0 ranks
    # first, and every pair off the list lies past the cap
    rank = np.full((n, n), over, dtype=np.int32)
    rank[ii, jj] = rank[jj, ii] = np.cumsum(distinct, dtype=np.int32) - 1
    np.fill_diagonal(rank, 0)
    death = np.empty(len(cycle), dtype=np.int64)
    if _library().reduce_h1(n, rank, over, _int64(ii), _int64(jj), len(cycle), _int64(cycle),
                            _FOLD, death):
        raise MemoryError("out of memory in the H1 column reduction")
    births = vals[cycle]
    deaths = np.where(death < 0, INF, uniq[death])  # no cofacet left: essential
    alive = deaths > births  # apparent pairs die at their own length
    return [(1, b, d) for b, d in zip(births[alive].tolist(), deaths[alive].tolist())]


def rips_diagram(points: np.ndarray) -> PersistenceDiagram:
    """H0/H1 persistence of the Rips filtration, without listing triangles.

    The filtration stops at the enclosing radius, which provably leaves the
    diagram of the full filtration unchanged once zero-persistence pairs are
    dropped.  Non-finite coordinates raise ValueError.
    """
    pts = as_points(points)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud coordinates must be finite")
    n = len(pts)
    if n == 1:
        return PersistenceDiagram([(0, 0.0, INF)])
    dmat = squareform(pdist(pts))
    eff = enclosing_radius(dmat)

    ii, jj = np.nonzero(np.triu(dmat <= eff, k=1))  # row-major: (i, j) ascending
    vals = dmat[ii, jj]
    order = np.argsort(vals, kind="stable")  # by length, then (i, j)
    ii, jj, vals = ii[order], jj[order], vals[order]

    feats: list[tuple[int, float, float]] = []

    # --- dimension 0: Kruskal tree ---------------------------------------
    merging = _kruskal_tree(n, ii, jj)
    feats.extend((0, 0.0, float(v)) for v in vals[merging] if v > 0.0)
    feats.extend((0, 0.0, INF) for _ in range(n - len(merging)))
    is_cycle_edge = np.ones(len(vals), dtype=bool)
    is_cycle_edge[merging] = False

    # --- dimension 1 ------------------------------------------------------
    feats.extend(_h1_features(dmat, ii, jj, vals, np.nonzero(is_cycle_edge)[0]))
    return PersistenceDiagram(feats)


def betti_at(diagram: PersistenceDiagram, eps: float, dim: int) -> int:
    """Number of dim-``dim`` features with birth <= eps < death."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return sum(1 for d, b, dth in diagram.features if d == dim and b <= eps < dth)
