"""Vietoris-Rips filtrations and persistent homology in dimensions 0 and 1.

Two routes produce the same diagrams:

* ``compute_persistence`` runs the textbook boundary-matrix reduction over
  GF(2) on an explicit, sorted filtration.  It works for any complex of
  simplices up to dimension 2 and is the reference implementation.
* ``rips_diagram`` is a fast path specialised to Rips filtrations, after
  Ripser (Bauer, arXiv:1908.02518), never materialising the triangle list.
  H0 comes from a Kruskal sweep with union-find over the edge sequence.  H1
  reduces the coboundary columns of the cycle edges.  A triangle is one
  int64 key: the rank of its diameter among the distinct edge lengths,
  then its sorted vertices.  One vectorised pass over blocks of cycle edges
  (as in Ripser++, arXiv:2003.07989) finds every edge's earliest cofacet
  and settles the apparent pairs.  An edge whose earliest cofacet is still
  unclaimed forms an emergent pair.  Neither kind builds its column until
  another column must add it.  The remaining columns are sorted key
  arrays, added mod 2 by merging.
  Equivalence of the two routes is enforced by the test suite.

Conventions: Euclidean metric, vertices enter at scale 0, an edge at its
length, a triangle at its longest edge.  Simplices are ordered by
(scale, dimension, lexicographic vertices).  Zero-persistence pairs are
dropped from diagrams; unbounded classes carry death = +inf and serialise
with the ``inf`` sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

INF = math.inf


def _as_points(cloud) -> np.ndarray:
    pts = getattr(cloud, "points", cloud)
    return np.asarray(pts, dtype=float)


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
        Path(path).write_text(self.to_csv_text())

    def to_csv_text(self) -> str:
        lines = ["dim,birth,death"]
        for dim, birth, death in self.sorted_features():
            dtxt = "inf" if math.isinf(death) else repr(death)
            lines.append(f"{dim},{birth!r},{dtxt}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path) -> "PersistenceDiagram":
        return cls.from_csv_text(Path(path).read_text())

    @classmethod
    def from_csv_text(cls, text: str) -> "PersistenceDiagram":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].replace(" ", "") != "dim,birth,death":
            raise ValueError("diagram CSV must start with header 'dim,birth,death'")
        feats = []
        for ln in lines[1:]:
            dim_s, birth_s, death_s = ln.split(",")
            death = INF if death_s.strip() == "inf" else float(death_s)
            feats.append((int(dim_s), float(birth_s), death))
        return cls(feats)


def rips_filtration(points: np.ndarray, max_scale: float, max_dim: int = 2) -> list[FiltrationSimplex]:
    """Explicit Rips filtration, sorted by (value, dimension, vertices).

    Vertices appear at 0, an edge {i,j} at d(i,j) when that is <= max_scale,
    a triangle at the largest of its three edge values.  ``max_dim`` caps the
    simplex dimension (0, 1 or 2).
    """
    pts = _as_points(points)
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


def enclosing_radius(dmat: np.ndarray) -> float:
    """min over points of the max distance to any other point.

    At this scale the Rips complex is a cone, so no H1 class (and no H0
    merge) survives past it; capping there leaves diagrams unchanged.
    """
    return float(np.min(np.max(dmat, axis=1)))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


_BLOCK = 256  # cycle edges per apparent-pair block; temporaries are O(block x n)


def _tri_keys(trank, a, b, k, n: int):
    """Integer keys of triangles {a, b, k} (a < b) with diameter rank ``trank``.

    Mixed radix (rank, x, y, z) over the sorted vertices x < y < z, so keys
    order triangles exactly as the refined filtration does: by diameter,
    then lexicographically.  For a fixed edge (a, b) the key grows with k.
    """
    x = np.minimum(a, k)
    z = np.maximum(b, k)
    y = a + b + k - x - z
    return ((trank * n + x) * n + y) * n + z


def _add_mod2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric difference of two sorted key arrays, itself sorted.

    Timsort merges the two sorted runs in linear time; a key present in both
    lands in two adjacent slots and both copies are dropped.
    """
    s = np.sort(np.concatenate((x, y)), kind="stable")
    dup = s[1:] == s[:-1]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] &= ~dup
    keep[:-1] &= ~dup
    return s[keep]


def _h1_features(dmat: np.ndarray, ii: np.ndarray, jj: np.ndarray, vals: np.ndarray,
                 cycle: np.ndarray) -> list[tuple[int, float, float]]:
    """H1 bars by coboundary reduction over the cycle-edge columns.

    ``ii``, ``jj``, ``vals`` list the edges up to the scale cap in
    filtration order; ``cycle`` indexes those that close a cycle (every
    other edge's column is cleared by its H0 pair).  A triangle is an int64
    key whose leading digit is the rank of its diameter among the distinct
    edge lengths, so a death is read back as the exact ``dmat`` float.
    """
    n = len(dmat)
    m = len(vals)
    uniq = np.unique(vals)
    over = len(uniq)  # rank of every distance above the cap
    if (over + 1) * n ** 3 >= 2 ** 63:
        raise ValueError("point cloud too large for int64 triangle keys")
    rank = np.searchsorted(uniq, dmat)
    edge_index = np.full((n, n), m, dtype=np.int64)
    edge_index[ii, jj] = edge_index[jj, ii] = np.arange(m)
    n3 = n ** 3

    # Apparent pairs, in blocks of cycle edges: e's earliest cofacet t
    # (smallest diameter rank, then smallest third vertex, which is the
    # lexicographically least triangle) pairs with e when e is t's latest facet.
    first = np.full(len(cycle), -1, dtype=np.int64)  # key of earliest cofacet
    apparent = np.zeros(len(cycle), dtype=bool)
    for s in range(0, len(cycle), _BLOCK):
        e = cycle[s:s + _BLOCK]
        a, b = ii[e], jj[e]
        rows = np.arange(len(e))
        tr = np.maximum(np.maximum(rank[a], rank[b]), rank[a, b][:, None])
        tr[rows, a] = tr[rows, b] = over
        k = np.argmin(tr, axis=1)
        tmin = tr[rows, k]
        has = tmin < over
        first[s:s + _BLOCK] = np.where(has, _tri_keys(tmin, a, b, k, n), -1)
        apparent[s:s + _BLOCK] = has & (np.maximum(edge_index[a, k], edge_index[b, k]) < e)

    def coboundary(e: int) -> np.ndarray:
        a, b = int(ii[e]), int(jj[e])
        tr = np.maximum(np.maximum(rank[a], rank[b]), rank[a, b])
        tr[a] = tr[b] = over
        k = np.nonzero(tr < over)[0]
        return np.sort(_tri_keys(tr[k], a, b, k, n))

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
            col = coboundary(e)
            while len(col) and int(col[0]) in pivots:
                other = pivots[int(col[0])]
                if isinstance(other, int):
                    other = pivots[int(col[0])] = coboundary(other)
                col = _add_mod2(col, other)
            key = int(col[0]) if len(col) else -1
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


def rips_diagram(points: np.ndarray, max_scale: float | None = None) -> PersistenceDiagram:
    """H0/H1 persistence of the Rips filtration, without listing triangles.

    ``max_scale`` defaults to the cloud diameter.  Internally the scale is
    capped at the enclosing radius, which provably leaves the diagram
    unchanged once zero-persistence pairs are dropped.  Non-finite
    coordinates and a ``max_scale`` that is not positive raise ValueError.
    """
    pts = _as_points(points)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud coordinates must be finite")
    if max_scale is not None and not max_scale > 0:
        raise ValueError("max_scale must be positive")
    n = len(pts)
    if n == 1:
        return PersistenceDiagram([(0, 0.0, INF)])
    dmat = squareform(pdist(pts))
    if max_scale is None:
        max_scale = float(dmat.max())
    eff = min(float(max_scale), enclosing_radius(dmat))

    ii, jj = np.nonzero(np.triu(dmat <= eff, k=1))
    vals = dmat[ii, jj]
    order = np.lexsort((jj, ii, vals))
    ii, jj, vals = ii[order], jj[order], vals[order]

    feats: list[tuple[int, float, float]] = []

    # --- dimension 0: Kruskal sweep -------------------------------------
    uf = _UnionFind(n)
    is_cycle_edge = np.zeros(len(vals), dtype=bool)
    for e in range(len(vals)):
        if uf.union(int(ii[e]), int(jj[e])):
            if vals[e] > 0.0:
                feats.append((0, 0.0, float(vals[e])))
        else:
            is_cycle_edge[e] = True
    roots = {uf.find(v) for v in range(n)}
    feats.extend((0, 0.0, INF) for _ in roots)

    # --- dimension 1 ------------------------------------------------------
    feats.extend(_h1_features(dmat, ii, jj, vals, np.nonzero(is_cycle_edge)[0]))
    return PersistenceDiagram(feats)


def betti_at(diagram: PersistenceDiagram, eps: float, dim: int) -> int:
    """Number of dim-``dim`` features with birth <= eps < death."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return sum(1 for d, b, dth in diagram.features if d == dim and b <= eps < dth)
