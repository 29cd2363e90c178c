"""Merging per-segment diagrams and density-filtering the merged point set.

A subject's segments each contribute a persistence diagram; the finite
H1 features are pooled (with multiplicity) into one planar point set, a
Gaussian-kernel density is evaluated at every point, and the lowest-density
fraction is discarded as outliers before the survivors become the
subject-level diagram.  The kernel's bandwidth follows one rule, ``cov10``:
``BandwidthSpec.from_covariance`` of the pooled points, ``COV_SCALE`` times
their sample covariance plus a ``COV_RIDGE`` ridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .homology import PersistenceDiagram

COV_SCALE = 10.0  # the 10 of the ``cov10`` bandwidth
COV_RIDGE = 1e-9  # keeps the covariance positive-definite when the points are collinear


@dataclass(frozen=True)
class BandwidthSpec:
    """2x2 symmetric positive-definite kernel bandwidth matrix."""

    matrix: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        h = self.as_array()
        if h.shape != (2, 2):
            raise ValueError("bandwidth matrix must be 2x2")
        if not np.allclose(h, h.T, atol=1e-12):
            raise ValueError("bandwidth matrix must be symmetric")
        if np.linalg.eigvalsh(h).min() <= 0:
            raise ValueError("bandwidth matrix must be positive-definite")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    @classmethod
    def from_array(cls, h: np.ndarray) -> "BandwidthSpec":
        h = np.asarray(h, dtype=float)
        return cls(((float(h[0, 0]), float(h[0, 1])), (float(h[1, 0]), float(h[1, 1]))))

    @classmethod
    def from_covariance(cls, points: np.ndarray) -> "BandwidthSpec":
        """COV_SCALE x (sample covariance of the points + COV_RIDGE x identity)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts) < 2:
            cov = np.eye(2)
        else:
            cov = np.cov(pts.T)
        return cls.from_array(COV_SCALE * (cov + COV_RIDGE * np.eye(2)))


def merge_diagrams(diagrams: list[PersistenceDiagram]) -> np.ndarray:
    """Pooled (birth, death) pairs of all finite H1 features, with multiplicity."""
    if not diagrams:
        raise ValueError("nothing to merge")
    return np.vstack([d.finite_bars(1) for d in diagrams])


def mkde_density(points: np.ndarray, bw: BandwidthSpec) -> np.ndarray:
    """Gaussian-kernel density of each point against the whole set.

    f(x_j) = (1/N) sum_i (2 pi)^-1 det(H)^-1/2 exp(-1/2 (x_j-x_i)^T H^-1 (x_j-x_i)),
    self-term included.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        raise ValueError("density needs at least one point")
    h = bw.as_array()
    det = float(np.linalg.det(h))
    if det <= 0 or not np.isfinite(det):
        raise ValueError("singular bandwidth matrix")
    hinv = np.linalg.inv(h)
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))
    out = np.empty(n, dtype=float)
    chunk = max(1, int(4e6) // max(n, 1))
    for start in range(0, n, chunk):
        diff = pts[start:start + chunk, None, :] - pts[None, :, :]
        quad = np.einsum("ijk,kl,ijl->ij", diff, hinv, diff)
        out[start:start + chunk] = norm * np.exp(-0.5 * quad).mean(axis=1)
    return out


def filter_by_density(points: np.ndarray, densities: np.ndarray,
                      keep_fraction: float) -> PersistenceDiagram:
    """Keep the ceil(keep_fraction * N) highest-density points as an H1 diagram.

    The dropped points are the lowest-density ones; ties at the threshold
    keep the earlier-indexed point.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    dens = np.asarray(densities, dtype=float)
    if len(pts) != len(dens):
        raise ValueError("points and densities must align")
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must lie in (0, 1]")
    n = len(pts)
    keep = math.ceil(keep_fraction * n)
    # ascending density; equal densities surface later-indexed first so they drop first
    order = np.lexsort((-np.arange(n), dens))
    return PersistenceDiagram((1, float(b), float(d)) for b, d in pts[order[n - keep:]])
