"""Vietoris-Rips persistent homology in dimensions 0 and 1.

``rips_diagram`` follows Ripser (Bauer, arXiv:1908.02518) and never
materialises the triangle list.

* H0 is the Kruskal tree of the edge sequence, found as the minimum
  spanning tree of the edges weighted by their position in the filtration.
  Those weights are distinct, so the tree is unique and equals Kruskal's,
  ties and duplicate points included.  The edges off the tree close cycles.
* H1 reduces the coboundary columns of the cycle edges.  A triangle is one
  int64 key: the rank of its diameter among the distinct edge lengths, then
  its sorted vertices.  One vectorised pass over blocks of cycle edges (as
  in Ripser++, arXiv:2003.07989) finds every edge's earliest cofacet and
  settles the apparent pairs; it compares int32 diameter ranks and edge
  indices and builds int64 keys only for the cofacets it picks.  An edge
  whose earliest cofacet is still unclaimed forms an emergent pair.  Neither
  kind builds its column until another column must add it.  The remaining
  columns are sorted key arrays.  While a column is reduced, the columns
  added to it collect in a small sorted buffer, which is merged into the
  column only once it outgrows a fixed fraction of it; each new pivot is
  read off the two fronts.

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

import math
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from .cloud import as_points
from .fileio import format_table, read_table, write_atomic

INF = math.inf


class PersistenceDiagram:
    """Multiset of (dim, birth, death) features, death possibly +inf."""

    def __init__(self, features: Iterable[tuple[int, float, float]] = ()):
        feats = []
        for dim, birth, death in features:
            if death < birth:
                raise ValueError(f"death {death} < birth {birth}")
            feats.append((int(dim), float(birth), float(death)))
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


def _kruskal_tree(n: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the edges that merge two components.

    The edges (ii[e], jj[e]) on vertices 0..n-1 enter in position order.
    Weighted 1 + position, their weights are distinct and nonzero, so the
    minimum spanning forest is unique and is exactly the forest a Kruskal
    sweep in that order keeps, whatever the edge lengths.
    """
    weights = np.arange(1, len(ii) + 1, dtype=float)
    tree = minimum_spanning_tree(csr_matrix((weights, (ii, jj)), shape=(n, n)))
    return np.sort(tree.data.astype(np.int64)) - 1


_BLOCK = 256  # cycle edges per apparent-pair block; temporaries are O(block x n)


def _add_mod2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric difference of two sorted key arrays, itself sorted.

    Timsort merges the two sorted runs in linear time; a key present in both
    lands in two adjacent slots and both copies are dropped.
    """
    s = np.concatenate((x, y))
    s.sort(kind="stable")
    differs = np.empty(len(s) + 1, dtype=bool)  # differs[i]: s[i - 1] != s[i]
    differs[0] = differs[-1] = True
    np.not_equal(s[1:], s[:-1], out=differs[1:-1])
    return s[differs[1:] & differs[:-1]]


_FOLD = 8     # pending addends fold into the working column beyond 1/_FOLD of its size
_WINDOW = 64  # keys compared per front and step of the pivot search
_EMPTY = np.empty(0, dtype=np.int64)


def _next_pivot(col: np.ndarray, buf: np.ndarray, low: int) -> int:
    """Smallest key above ``low`` of the sum ``col`` + ``buf``, or -1 if there is none.

    Both arrays are sorted, and their keys up to ``low`` must cancel.  Above
    ``low`` the merge of the two fronts cancels them in lockstep, so the
    smallest key of the sum is the smaller one at the first position where
    they differ.  The fronts are compared a window at a time, and the keys
    beyond the pivot are never read.
    """
    ic, ib = int(col.searchsorted(low, "right")), int(buf.searchsorted(low, "right"))
    while True:
        c, b = col[ic:ic + _WINDOW], buf[ib:ib + _WINDOW]
        both = min(len(c), len(b))
        differ = (c[:both] != b[:both]).nonzero()[0]
        if len(differ):
            return int(min(c[differ[0]], b[differ[0]]))
        if both < _WINDOW:  # a front ran out: the other one's next key, if any
            rest = c[both:] if len(c) > both else b[both:]
            return int(rest[0]) if len(rest) else -1
        ic, ib = ic + both, ib + both


def _reduce_column(col: np.ndarray, key: int, pivots: dict,
                   coboundary) -> tuple[int, np.ndarray]:
    """Add pivot-table columns to ``col``, whose pivot is ``key``, until its pivot is new.

    Returns the final pivot, or -1 if the column vanishes, and the reduced
    column.  A table entry that is still an edge is replaced by the edge's
    coboundary on first use.  The addends collect in a sorted buffer that
    is merged into the column only once it outgrows 1/_FOLD of it, so a
    short coboundary costs a merge with the buffer, not with the column.
    """
    buf = _EMPTY
    while key in pivots:
        other = pivots[key]
        if isinstance(other, int):
            other = pivots[key] = coboundary(other)
        buf = _add_mod2(buf, other)
        if len(buf) * _FOLD > len(col):  # keys up to ``key`` cancel: drop them
            col = _add_mod2(col[col.searchsorted(key, "right"):],
                            buf[buf.searchsorted(key, "right"):])
            buf = _EMPTY
        key = _next_pivot(col, buf, key)
    if key < 0:
        return key, _EMPTY
    return key, _add_mod2(col[col.searchsorted(key):], buf[buf.searchsorted(key):])


def _apparent_pairs(rank: np.ndarray, lead: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                    cycle: np.ndarray, over: int, n3: int) -> tuple[np.ndarray, np.ndarray]:
    """Key of each cycle edge's earliest cofacet (-1 if none) and whether the pair is apparent.

    Blocks of cycle edges at a time: e's earliest cofacet t (smallest
    diameter rank, then smallest third vertex, which is the lexicographically
    least triangle) pairs with e when e is t's latest facet.  The search runs
    on int32 diameter ranks and edge indices, which order triangles as their
    int64 keys do; only the chosen cofacets are widened to keys.  ``rank``
    holds each vertex pair's diameter rank, ``over`` marks a rank past the cap.
    """
    n, m = len(rank), len(ii)
    edge_index = np.full((n, n), m, dtype=np.int32)
    edge_index[ii, jj] = edge_index[jj, ii] = np.arange(m, dtype=np.int32)
    first = np.full(len(cycle), -1, dtype=np.int64)
    apparent = np.zeros(len(cycle), dtype=bool)
    for s in range(0, len(cycle), _BLOCK):
        e = cycle[s:s + _BLOCK]
        a, b = ii[e], jj[e]
        rows = np.arange(len(e))
        tr = rank[a]  # a fresh copy, so the maxima can go in place
        np.maximum(tr, rank[b], out=tr)
        np.maximum(tr, rank[a, b][:, None], out=tr)
        tr[rows, a] = tr[rows, b] = over
        k = np.argmin(tr, axis=1)
        tmin = tr[rows, k]
        has = tmin < over
        keys = tmin.astype(np.int64) * n3 + np.minimum(lead[a, k] + b, lead[a, b] + k)
        first[s:s + _BLOCK] = np.where(has, keys, -1)
        apparent[s:s + _BLOCK] = has & (np.maximum(edge_index[a, k], edge_index[b, k]) < e)
    return first, apparent


def _h1_features(dmat: np.ndarray, ii: np.ndarray, jj: np.ndarray, vals: np.ndarray,
                 cycle: np.ndarray) -> list[tuple[int, float, float]]:
    """H1 bars by coboundary reduction over the cycle-edge columns.

    ``ii``, ``jj``, ``vals`` list every edge up to the scale cap, in
    filtration order; ``cycle`` indexes those that close a cycle (every
    other edge's column is cleared by its H0 pair).  A triangle is an int64
    key whose leading digit is the rank of its diameter among the distinct
    edge lengths, so a death is read back as the exact ``dmat`` float.
    """
    n = len(dmat)
    distinct = np.empty(len(vals), dtype=bool)  # vals is sorted: keep each first copy
    distinct[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=distinct[1:])
    uniq = vals[distinct]
    over = len(uniq)  # rank of every distance above the cap
    if (over + 1) * n ** 3 >= 2 ** 63 or len(vals) >= 2 ** 31:
        raise ValueError("point cloud too large for int64 triangle keys and int32 edge indices")
    # Key of triangle {a, b, k} (a < b) with diameter rank r: mixed radix
    # (r, x, y, z) over its sorted vertices, so keys order triangles as the
    # refined filtration does, by diameter and then lexicographically.  The
    # leading digit is the largest of rank[a, b], rank[a, k] and rank[b, k].
    # With lead[x, y] = (x * n + y) * n for x < y, the vertex digits are
    # min(lead[a, k] + b, lead[a, b] + k), and for fixed (a, b) they grow with k.
    n3 = n ** 3
    # rank[x, y] = np.searchsorted(uniq, dmat[x, y]), read off the edge list: an
    # edge's rank counts the distinct lengths before it, the diagonal's 0.0 ranks
    # first, and every pair off the list lies past the cap
    rank = np.full((n, n), over, dtype=np.int32)
    rank[ii, jj] = rank[jj, ii] = np.cumsum(distinct, dtype=np.int32) - 1
    np.fill_diagonal(rank, 0)
    diam = rank.astype(np.int64) * n3
    top = over * n3  # keys at or above lie past the cap
    verts = np.arange(n)
    lead = (np.minimum.outer(verts, verts) * n + np.maximum.outer(verts, verts)) * n
    first, apparent = _apparent_pairs(rank, lead, ii, jj, cycle, over, n3)

    def coboundary(e: int) -> np.ndarray:
        a, b = int(ii[e]), int(jj[e])
        col = (np.maximum(np.maximum(diam[a], diam[b]), diam[a, b])
               + np.minimum(lead[a] + b, lead[a, b] + verts))
        col[a] = col[b] = top
        col.sort()
        return col[:col.searchsorted(top)]

    # Pivot table: triangle key -> the column it is the pivot of, either as
    # the edge whose coboundary is built on first use, or as the reduced
    # array when reduction changed it.  Apparent and emergent pairs never
    # build a column unless another column needs to add it.
    pivots: dict[int, int | np.ndarray] = dict(zip(first[apparent].tolist(),
                                                   cycle[apparent].tolist()))
    feats = []
    todo = ~apparent
    for e, key in zip(cycle[todo][::-1].tolist(), first[todo][::-1].tolist()):
        if key in pivots:
            key, col = _reduce_column(coboundary(e), key, pivots, coboundary)
            if key >= 0:
                pivots[key] = col
        elif key >= 0:  # emergent pair: the column is reduced as it stands
            pivots[key] = e
        birth = float(vals[e])
        if key < 0:  # no cofacet left: essential class
            feats.append((1, birth, INF))
        else:
            death = float(uniq[key // n3])
            if death > birth:
                feats.append((1, birth, death))
    return feats


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
