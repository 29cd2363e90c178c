"""Reference homology routes that the fast path is tested against.

* ``rips_filtration`` lists the Rips filtration explicitly, and
  ``compute_persistence`` runs the textbook boundary-matrix reduction over
  GF(2) on it.  It works for any sorted complex of simplices up to
  dimension 2.
* ``brute_force_betti`` shares no reduction code with either route; Betti
  numbers come straight from GF(2) ranks of dense boundary matrices, so it
  can sit on the other side of an equivalence test.

:func:`topofeat.homology.rips_diagram` is the pipeline's one homology route,
with its Kruskal sweep, apparent-pair pass and column reduction compiled
from ``_homology.c``; nothing here runs in it, and nothing here is compiled,
so the suite can hold its diagrams against both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .cloud import as_points
from .homology import INF, PersistenceDiagram

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
