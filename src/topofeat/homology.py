"""Vietoris-Rips persistent homology in dimensions 0 and 1.

``rips_diagram`` follows Ripser (Bauer, arXiv:1908.02518) and never
materialises the triangle list.  numpy computes the distances and the
enclosing radius, and one call of ``rips_pairs`` in ``_kernels.c`` does the
rest.  :mod:`topofeat._kernels` compiles that file on first use; without a
working gcc, ``rips_diagram`` raises RuntimeError.

* The edges up to the radius are ordered by (length, vertices) and their
  distinct lengths ranked: lengths are compared, never computed with.
* H0 is the Kruskal tree of that order, ties and duplicate points included;
  the edges off the tree close cycles.
* H1 reduces the coboundary columns of the cycle edges over int64 triangle
  keys, a diameter rank and then sorted vertices.  Apparent pairs are found
  by one scan per edge (as in Ripser++, arXiv:2003.07989), emergent pairs
  build no column, and the other columns are reduced latest edge first on a
  radix heap.  A reduced column is stored as the cycle edges whose
  coboundaries sum to it.

Each birth and death comes back as a copy of a ``pdist`` float, so the
diagrams are those of the integer algorithm.

The tests hold ``rips_diagram`` to a textbook boundary-matrix route and a
brute-force Betti oracle, both in ``tests/oracles.py``.

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
from scipy.spatial.distance import pdist, squareform

from ._kernels import _library
from .cloud import as_points
from .fileio import format_table, read_table, write_atomic

INF = math.inf


class PersistenceDiagram:
    """Multiset of (dim, birth, death) features, death possibly +inf.

    A feature needs a finite birth at most its death, so NaN is rejected too.
    ``features`` holds them sorted by (dim, birth, death), whatever order they
    came in, so equal diagrams hold, write and plot equal lists.
    """

    def __init__(self, features: Iterable[tuple[int, float, float]] = ()):
        feats = []
        for dim, birth, death in features:
            feat = (int(dim), float(birth), float(death))
            if not (math.isfinite(feat[1]) and feat[1] <= feat[2]):
                raise ValueError(f"feature {feat}: birth must be finite and at most death")
            feats.append(feat)
        self.features: list[tuple[int, float, float]] = sorted(feats)

    def __len__(self) -> int:
        return len(self.features)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return self.features == other.features

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

    def to_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())

    def to_csv_text(self) -> str:
        """The ``dim,birth,death`` table of the features, as ``to_csv`` writes it."""
        return format_table([("dim", "birth", "death"), *self.features])

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


def rips_diagram(points: np.ndarray) -> PersistenceDiagram:
    """H0/H1 persistence of the Rips filtration, without listing triangles.

    The filtration stops at the enclosing radius, which provably leaves the
    diagram of the full filtration unchanged once zero-persistence pairs are
    dropped.  Non-finite coordinates raise ValueError, as do finite ones
    whose distances overflow to +inf.
    """
    pts = as_points(points)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("point cloud must be a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud coordinates must be finite")
    n = len(pts)
    if n == 1:
        return PersistenceDiagram([(0, 0.0, INF)])
    dist = pdist(pts)
    if not np.isfinite(dist).all():
        raise ValueError("point cloud distances must be finite")
    dmat = squareform(dist)
    h0, birth, death = np.empty(n - 1), np.empty(len(dist)), np.empty(len(dist))
    count = np.empty(2, dtype=np.int64)  # merging edges, H1 pairs
    failed = _library().rips_pairs(n, dmat, enclosing_radius(dmat), h0, birth, death, count)
    if failed == 2:
        raise ValueError("point cloud too large for int64 triangle keys")
    if failed:
        raise MemoryError("out of memory in the Rips pairing")
    merged, found = count.tolist()
    feats = [(0, 0.0, v) for v in h0[:merged].tolist() if v > 0.0]
    feats += [(0, 0.0, INF)] * (n - merged)
    feats += [(1, b, d) for b, d in zip(birth[:found].tolist(), death[:found].tolist())]
    return PersistenceDiagram(feats)


def betti_at(diagram: PersistenceDiagram, eps: float, dim: int) -> int:
    """Number of dim-``dim`` features with birth <= eps < death."""
    if not eps >= 0:  # NaN too
        raise ValueError("eps must be nonnegative")
    return sum(1 for d, b, dth in diagram.features if d == dim and b <= eps < dth)
