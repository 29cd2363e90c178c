"""Distance-to-measure scores, their k-center approximation, and pruning.

``dtm_profile`` averages over the q nearest sample points, which makes it robust to
individual outliers.  ``kpdtm_fit`` approximates the same field with k
centers carrying a (mean, variance) pair each, fitted by alternating
minimisation of the summed score.  Pruning then removes the points with the
*smallest* scores: dense clusters that bury topological structure go first,
and the sparse structure-carrying points survive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

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


# queries per block in _nearest_mass_stats: 64 rows of a ~500-point cloud's
# distances and neighbour indices stay near 250 KB, well under one n x k score
_ROWS = 64


def _nearest_mass_stats(queries: np.ndarray, cloud: np.ndarray, q: int, fast: bool = False):
    """Per query: centroid of its q nearest cloud points and their mean squared spread.

    Ties at the q-th neighbour break toward the lower point index; ``fast``
    swaps the stable sort for argpartition (selection only, same result
    away from exact distance ties).

    The means and spreads are ``ndarray.mean``'s arithmetic without its
    Python wrapper: the same ``np.add.reduce`` and the same division by q.
    Queries are processed ``_ROWS`` at a time, each block's results written
    into the preallocated outputs, so no temporary grows past one block of
    query-by-point distances and indices.  Every step (each distance entry,
    the selection along a row, the per-row gather and reductions) works on
    one query row alone, so the block size cannot change a bit of the result.
    """
    nq, d = len(queries), cloud.shape[1]
    means = np.empty((nq, d))
    spread = np.empty(nq)
    for lo in range(0, nq, _ROWS):
        hi = min(lo + _ROWS, nq)
        d2 = cdist(queries[lo:hi], cloud, metric="sqeuclidean")
        if fast and q < d2.shape[1]:
            idx = np.argpartition(d2, q - 1, axis=1)[:, :q]
        else:
            idx = np.argsort(d2, axis=1, kind="stable")[:, :q]
        neigh = cloud[idx]                       # (rows, q, d), a fresh copy
        m = np.add.reduce(neigh, axis=1)         # (rows, d)
        m /= q
        means[lo:hi] = m
        neigh -= m[:, None, :]
        np.square(neigh, out=neigh)
        v = np.add.reduce(np.add.reduce(neigh, axis=2), axis=1)
        v /= q
        spread[lo:hi] = v
    return means, spread


def dtm_profile(cloud, queries, q: int) -> np.ndarray:
    """Squared-distance-like score of each query against the empirical measure.

    Equal to ||query - m||^2 + v with m the centroid of the q nearest cloud
    points and v their mean squared deviation from m.  With q = 1 this is
    the squared nearest-neighbour distance.
    """
    pts = as_points(cloud)
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > len(pts):
        raise ValueError("q exceeds cloud size")
    qs = as_points(queries)
    m, v = _nearest_mass_stats(qs, pts, q)
    return ((qs - m) ** 2).sum(axis=1) + v


def kpdtm_objective(centers: CenterSet, cloud) -> float:
    """Summed min-over-centers score of every cloud point."""
    return float(np.sum(kpdtm_eval(centers, as_points(cloud))))


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

    Points are assigned to their best center, each center is refreshed from
    the q nearest cloud points of its assignment centroid, and the loop
    stops when assignments repeat or the iteration cap is hit.  The summed
    objective never increases from one iteration to the next; pass a list
    as ``history`` to record it.  Initial centers are k distinct cloud
    points drawn with the seeded generator; the draw depends on (n, k, seed)
    alone, so fits of clouds of one size share it (``_initial_draw``).
    Non-finite coordinates raise ValueError.

    The update is incremental.  Each center keeps the query its (mean,
    variance) was computed from, and the n x k score matrix persists across
    iterations.  Only the centers whose centroid differs from their stored
    query are recomputed, and only their score columns are rebuilt.  Every
    step works per query row or per (point, center) pair, and a centroid of
    unchanged membership is bit-equal to the last one, so the result is the
    same as recomputing every center each iteration.  The last score matrix
    also gives every cloud point's score under the returned centers, which
    ``_fit_scores`` hands to the pruning steps.

    Memory: no temporary is larger than the n x k score matrix.  The
    neighbour statistics run in row blocks (see ``_nearest_mass_stats``),
    and the variances are added in place to each freshly computed distance
    block, the same IEEE add as a separate sum.  So the moved centers'
    distance block is the only other score-sized array.  Freed arrays of
    that size go back to the kernel and fault in again on the next fit,
    which costs more than the arithmetic.
    """
    pts = as_points(cloud)
    if not np.isfinite(pts).all():
        raise ValueError("point cloud coordinates must be finite")
    n = len(pts)
    params.validate_for(n)
    q, k = params.n_neighbors, params.n_centers
    queries = pts[_initial_draw(n, k, params.seed)]
    means, variances = _nearest_mass_stats(queries, pts, q, fast=True)
    score = cdist(pts, means, metric="sqeuclidean")
    score += variances

    columns = np.ascontiguousarray(pts.T)  # bincount weights, one contiguous row per coordinate
    prev_assign = None
    prev_obj = None
    for _ in range(params.max_iter):
        assign = np.argmin(score, axis=1)
        obj = float(score[np.arange(n), assign].sum())
        if history is not None:
            history.append(obj)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if prev_obj is not None and obj == prev_obj:
            break  # assignment 2-cycle at constant objective
        prev_assign = assign
        prev_obj = obj
        counts = np.bincount(assign, minlength=k)
        occupied = np.nonzero(counts > 0)[0]
        sums = np.column_stack([np.bincount(assign, weights=col, minlength=k) for col in columns])
        centroids = sums[occupied] / counts[occupied, None]
        shifted = np.any(centroids != queries[occupied], axis=1)
        moved = occupied[shifted]
        queries[moved] = centroids[shifted]
        means[moved], variances[moved] = _nearest_mass_stats(queries[moved], pts, q, fast=True)
        block = cdist(pts, means[moved], metric="sqeuclidean")
        block += variances[moved]
        score[:, moved] = block
    centers = CenterSet(means, variances)
    centers._scores = score.min(axis=1)
    return centers


def _fit_scores(cloud, params: MassParams) -> np.ndarray:
    """Score of every point of ``cloud`` under the k-PDTM fitted to it.

    Equal, bit for bit, to ``kpdtm_eval(kpdtm_fit(cloud, params), cloud)``:
    the fit's score matrix holds every (point, center) value that evaluation
    would recompute.
    """
    return kpdtm_fit(cloud, params)._scores


def kpdtm_eval(centers: CenterSet, query) -> np.ndarray | float:
    """min over centers of ||query - mean_i||^2 + variance_i."""
    if len(centers) == 0:
        raise ValueError("empty center set")
    qv = np.asarray(query, dtype=float)
    single = qv.ndim == 1
    qs = qv.reshape(-1, centers.means.shape[1])
    vals = cdist(qs, centers.means, metric="sqeuclidean") + centers.variances[None, :]
    out = vals.min(axis=1)
    return float(out[0]) if single else out


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
