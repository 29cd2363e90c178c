"""Distance-to-measure scores, their k-center approximation, and pruning.

``dtm_profile`` averages over the q nearest sample points, which makes it robust to
individual outliers.  ``kpdtm_fit`` approximates the same field with k
centers carrying a (mean, variance) pair each, fitted by alternating
minimisation of the summed score (the k-PDTM of Brécheteau & Levrard).
Pruning then removes the points with the *smallest* scores: dense clusters
that bury topological structure go first, and the sparse structure-carrying
points survive.

Both pick a query's q nearest points by one rule, (squared distance, point
index).  The neighbour statistics and the whole fit run in ``_kernels.c``
(see :mod:`topofeat._kernels`), whose arithmetic is numpy's, sum for sum.
Its searches walk a grid of cells and skip only the cells a bound rules out,
so the grid changes no bit.  No step depends on numpy's SIMD dispatch or the
BLAS kernel, so the scores are the same bits on every machine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from ._kernels import _library
from .cloud import PointCloud, as_points


@dataclass(frozen=True)
class MassParams:
    """Neighbour mass count q, number of centers k, iteration cap and seed."""

    n_neighbors: int = 10
    n_centers: int = 350
    max_iter: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_neighbors < 1 or self.n_centers < 1:
            raise ValueError("n_neighbors and n_centers must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def validate_for(self, n_points: int) -> None:
        if self.n_neighbors > n_points:
            raise ValueError(f"n_neighbors={self.n_neighbors} exceeds cloud size {n_points}")
        if self.n_centers > n_points:
            raise ValueError(f"n_centers={self.n_centers} exceeds cloud size {n_points}")

    def capped(self, n_points: int) -> "MassParams":
        """Copy with n_centers (and n_neighbors) clipped to the cloud size."""
        return MassParams(
            n_neighbors=min(self.n_neighbors, n_points),
            n_centers=min(self.n_centers, n_points),
            max_iter=self.max_iter,
            seed=self.seed,
        )


@dataclass
class CenterSet:
    """k centers, each a (mean vector, scalar variance) pair."""

    means: np.ndarray      # (k, d)
    variances: np.ndarray  # (k,)
    # set by kpdtm_fit: the score of every point of the fitted cloud
    _scores: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        if self.means.ndim != 2 or self.variances.shape != (len(self.means),):
            raise ValueError("means must be (k, d) with one variance per center")
        if np.any(self.variances < 0):
            raise ValueError("variances must be nonnegative")

    def __len__(self) -> int:
        return len(self.means)


def _mass_stats(queries: np.ndarray, pts: np.ndarray, q: int):
    """Per query: the mean of its q nearest points of ``pts`` and their mean squared
    deviation from it, computed in C."""
    means = np.empty(queries.shape)
    spread = np.empty(len(queries))
    if _library().mass_stats(len(pts), pts.shape[1], pts, len(queries), queries, q, means, spread):
        raise MemoryError("out of memory in the k-PDTM neighbour statistics")
    return means, spread


def dtm_profile(cloud, queries, q: int) -> np.ndarray:
    """Squared-distance-like score of each query against the empirical measure.

    Equal to ||query - m||^2 + v with m the centroid of the q nearest cloud
    points and v their mean squared deviation from m.  With q = 1 this is
    the squared nearest-neighbour distance.  Neighbours are chosen by
    (squared distance, point index), as in ``kpdtm_fit``.  Non-finite cloud
    coordinates raise ValueError, as do queries of another dimension.
    """
    pts = np.ascontiguousarray(as_points(cloud))
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > len(pts):
        raise ValueError("q exceeds cloud size")
    if not np.isfinite(pts).all():
        raise ValueError("point cloud coordinates must be finite")
    qs = np.ascontiguousarray(as_points(queries))
    if qs.shape[1] != pts.shape[1]:
        raise ValueError(f"queries have {qs.shape[1]} coordinates, the cloud {pts.shape[1]}")
    m, v = _mass_stats(qs, pts, q)
    return ((qs - m) ** 2).sum(axis=1) + v


@functools.lru_cache(maxsize=16)
def _initial_draw(n: int, k: int, seed: int) -> np.ndarray:
    """Indices of the k distinct initial centers among n points, drawn once per (n, k, seed).

    The array is read-only, since every fit of that shape shares it.
    """
    idx = np.random.default_rng(seed).choice(n, size=k, replace=False)
    idx.flags.writeable = False
    return idx


def kpdtm_fit(cloud, params: MassParams, history: list | None = None) -> CenterSet:
    """Alternating minimisation of the k-center score field.

    A query's q nearest cloud points are chosen by (squared distance, point
    index) and summed in that order; a center is their mean and mean
    squared deviation from it.  Points are assigned to their best center,
    the first on a tie, and each occupied center is refreshed from the q
    nearest points of its assignment centroid.  The loop stops when the
    assignment repeats the last one or the one before it (a 2-cycle), when
    the summed objective repeats, or at the iteration cap.  A fit that stops
    on its own returns the centers its last objective was scored with.  The
    summed objective never increases from one iteration to the next, up to
    rounding; pass a list as ``history`` to record it.  Initial centers come from k distinct
    cloud points drawn with the seeded generator; the draw depends on (n, k,
    seed) alone, so fits of clouds of one size share it (``_initial_draw``).
    Non-finite coordinates raise ValueError.

    The fit runs in C (``_kernels.c``), with numpy's arithmetic: the squared
    distances of scipy's ``cdist``, numpy's pairwise sums, ``argmin``'s
    first minimum and ``bincount``'s centroid sums.  Only the centers whose
    centroid moved are refitted; when any did, every point's best center is
    searched again.  Neighbours and best centers are searched on a grid of
    cells, and no k x n score matrix is kept, so the fit's memory is
    O(k + n).  The score of every cloud point under the returned centers
    is kept as ``_scores`` for the pruning steps.
    """
    pts = np.ascontiguousarray(as_points(cloud))
    if not np.isfinite(pts).all():
        raise ValueError("point cloud coordinates must be finite")
    n, d = pts.shape
    params.validate_for(n)
    k = params.n_centers
    means, variances = np.empty((k, d)), np.empty(k)
    scores, objectives = np.empty(n), np.empty(params.max_iter)
    iters = _library().kpdtm_fit(n, d, pts, k, _initial_draw(n, k, params.seed),
                                 params.n_neighbors, params.max_iter, means, variances,
                                 scores, objectives)
    if iters < 0:
        raise MemoryError("out of memory in the k-PDTM fit")
    if history is not None:
        history.extend(objectives[:iters].tolist())
    centers = CenterSet(means, variances)
    centers._scores = scores
    return centers


def _fit_scores(cloud, params: MassParams) -> np.ndarray:
    """Score of every point of ``cloud`` under the k-PDTM fitted to it.

    Equal, bit for bit, to ``kpdtm_eval(kpdtm_fit(cloud, params), cloud)``:
    the fit keeps each point's least score over the centers it returns,
    computed as that evaluation computes it.
    """
    return kpdtm_fit(cloud, params)._scores


def kpdtm_eval(centers: CenterSet, query) -> np.ndarray | float:
    """min over centers of ||query - mean_i||^2 + variance_i.

    A 1-D query is one point and gives a float; an (m, d) block gives m
    values.  A query of another dimension than the centers raises ValueError.
    """
    if len(centers) == 0:
        raise ValueError("empty center set")
    qv = np.asarray(query, dtype=float)
    d = centers.means.shape[1]
    if qv.ndim not in (1, 2):
        raise ValueError("a query must be one point or an (m, d) array")
    if qv.shape[-1] != d:
        raise ValueError(f"queries have {qv.shape[-1]} coordinates, the cloud {d}")
    vals = cdist(qv.reshape(-1, d), centers.means, metric="sqeuclidean") + centers.variances[None, :]
    out = vals.min(axis=1)
    return float(out[0]) if qv.ndim == 1 else out


def _keep_largest(scores: np.ndarray, keep_n: int) -> np.ndarray:
    """Positions of the keep_n largest scores, returned in original order.

    Ties at the cut prefer earlier positions.
    """
    n = len(scores)
    order = np.lexsort((np.arange(n), -scores))  # descending score, then index
    kept = np.sort(order[:keep_n])
    return kept


def prune_cloud(cloud: PointCloud, params: MassParams, keep_n: int) -> PointCloud:
    """Drop the lowest-scoring (densest) points, keep the keep_n highest.

    Output preserves the original point order, and with it any time index.
    """
    pts = as_points(cloud)
    if keep_n <= 0:
        raise ValueError("keep_n must be positive")
    if keep_n > len(pts):
        raise ValueError(f"keep_n={keep_n} exceeds cloud size {len(pts)}")
    kept = _keep_largest(_fit_scores(cloud, params), keep_n)
    if isinstance(cloud, PointCloud):
        return cloud.take(kept)
    return PointCloud(pts[kept])


def remap_multichannel(per_channel_clouds: list[PointCloud], keep_n: int,
                       params: MassParams) -> PointCloud:
    """Fuse per-channel clouds into one joint cloud of keep_n points.

    All clouds must share the same time index.  Each time index is scored
    by the mean of the per-channel center-field values at that channel's
    point; the keep_n best-scoring indices survive, and the joint point is
    the concatenation of every channel's coordinates there.
    """
    if not per_channel_clouds:
        raise ValueError("need at least one channel cloud")
    ref = per_channel_clouds[0]
    if ref.time_index is None:
        raise ValueError("channel clouds must carry a time index")
    for c in per_channel_clouds[1:]:
        if c.time_index is None or not np.array_equal(c.time_index, ref.time_index):
            raise ValueError("mismatched time_index across channel clouds")
    if keep_n <= 0:
        raise ValueError("keep_n must be positive")
    if keep_n > len(ref):
        raise ValueError(f"keep_n={keep_n} exceeds cloud size {len(ref)}")

    scores = np.zeros(len(ref), dtype=float)
    for c in per_channel_clouds:
        scores += _fit_scores(c, params)
    scores /= len(per_channel_clouds)

    kept = _keep_largest(scores, keep_n)
    joint = np.hstack([c.points[kept] for c in per_channel_clouds])
    return PointCloud(joint, time_index=ref.time_index[kept])
