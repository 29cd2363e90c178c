"""Delay-embedding of scalar series and estimation of its two parameters.

The delay is read off the first minimum of the average mutual information
of (x_t, x_{t+lag}); the dimension comes from the false-nearest-neighbour
fraction dropping below a threshold.  For multichannel input each channel
is estimated separately and the maxima are taken, so that every channel's
attractor is unfolded at the shared parameters.  The estimate's bins,
tolerances, dimension cap and threshold are fixed choices of the method,
module constants beside ``estimate_embedding_params``; only the two
primitives take them as arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .cloud import PointCloud


@dataclass(frozen=True)
class EmbeddingParams:
    """Embedding dimension and delay (in samples)."""

    dim: int = 2
    delay: int = 10

    def __post_init__(self):
        if self.dim < 1 or self.delay < 1:
            raise ValueError("embedding dimension and delay must be >= 1")

    def n_points(self, n_samples: int) -> int:
        return n_samples - (self.dim - 1) * self.delay


def average_mutual_information(series, max_lag: int, bins: int = 16) -> np.ndarray:
    """Mutual information (nats) of (x_t, x_{t+lag}) for lag = 1..max_lag.

    Joint counts come from equal-width bins spanning the series range; the
    plug-in estimate is nonnegative by construction.
    """
    x = np.asarray(series, dtype=float)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if len(x) <= max_lag + 1:
        raise ValueError("series too short for requested max_lag")
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise ValueError("degenerate series: zero range")
    # right-closed last bin so the maximum lands in bin bins-1
    codes = np.minimum((bins * (x - lo) / (hi - lo)).astype(int), bins - 1)
    out = np.empty(max_lag, dtype=float)
    for lag in range(1, max_lag + 1):
        a, b = codes[:-lag], codes[lag:]
        joint = np.bincount(a * bins + b, minlength=bins * bins).reshape(bins, bins)
        joint = joint / joint.sum()
        px = joint.sum(axis=1, keepdims=True)
        py = joint.sum(axis=0, keepdims=True)
        nz = joint > 0
        out[lag - 1] = float(np.sum(joint[nz] * np.log(joint[nz] / (px @ py)[nz])))
    return out


def first_minimum_lag(mi) -> int:
    """Smallest lag whose MI value is a (left-strict) local minimum.

    The first entry qualifies when it does not exceed its right neighbour
    (a leading plateau counts as a minimum); the last entry only needs to
    beat its left neighbour.  A never-turning decreasing profile falls
    through to max_lag.
    """
    m = list(mi)
    if len(m) < 2:
        raise ValueError("need MI values for at least two lags")
    last = len(m)
    for lag in range(1, last + 1):
        v = m[lag - 1]
        if lag == 1:
            if v <= m[1]:
                return 1
        elif lag == last:
            if v < m[lag - 2]:
                return lag
        elif v < m[lag - 2] and v <= m[lag]:
            return lag
    return last


def _embed_matrix(x: np.ndarray, m: int, tau: int) -> np.ndarray:
    # coordinate k of point j is x[j - k*tau], j running from (m-1)*tau
    n_pts = len(x) - (m - 1) * tau
    j0 = (m - 1) * tau
    return np.column_stack([x[j0 - k * tau : j0 - k * tau + n_pts] for k in range(m)])


def false_nearest_neighbors(series, tau: int, m_max: int, rtol: float = 10.0,
                            atol: float = 2.0) -> np.ndarray:
    """False-neighbour fraction for each embedding dimension 1..m_max.

    A nearest neighbour at dimension m is false when the coordinate gained
    at m+1 blows the distance ratio past ``rtol``, or when the expanded
    distance exceeds ``atol`` times the series' standard deviation.
    """
    x = np.asarray(series, dtype=float)
    sd = float(x.std())
    if sd == 0.0:
        raise ValueError("degenerate series: zero variance")
    if len(x) - m_max * tau < 2:
        raise ValueError("series too short to embed at m_max with this delay")
    out = np.empty(m_max, dtype=float)
    for m in range(1, m_max + 1):
        # restrict to points that still exist at dimension m+1
        n_pts = len(x) - m * tau
        emb = _embed_matrix(x, m, tau)[-n_pts:]
        added = _embed_matrix(x, m + 1, tau)[:, -1]
        dists = cdist(emb, emb)
        np.fill_diagonal(dists, np.inf)
        nn = np.argmin(dists, axis=1)
        d_m = dists[np.arange(n_pts), nn]
        gained = np.abs(added - added[nn])
        # coincident points (exact revisits up to float noise) are true neighbours
        tiny = 1e-9 * sd
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d_m > tiny, gained / np.maximum(d_m, tiny),
                             np.where(gained > tiny, np.inf, 0.0))
        d_m1 = np.sqrt(d_m**2 + gained**2)
        false = (ratio > rtol) | (d_m1 > atol * sd)
        out[m - 1] = float(np.mean(false))
    return out


def delay_embed(series, params: EmbeddingParams) -> PointCloud:
    """Embed a scalar series into m-dimensional delay vectors.

    Point j is (x_j, x_{j-tau}, ..., x_{j-(m-1)tau}); its time index is j,
    the sample index of the first coordinate.  The cloud has exactly
    N - (m-1)*tau points.
    """
    x = np.asarray(series, dtype=float)
    n_pts = params.n_points(len(x))
    if n_pts < 1:
        raise ValueError("series too short for these embedding parameters")
    pts = _embed_matrix(x, params.dim, params.delay)
    j0 = (params.dim - 1) * params.delay
    return PointCloud(pts, time_index=np.arange(j0, j0 + n_pts))


AMI_BINS = 16          # equal-width bins per axis of the mutual-information histogram
FNN_RTOL = 10.0        # the distance ratio past which a neighbour is false
FNN_ATOL = 2.0         # the expanded distance, in standard deviations, past which it is false
FNN_DIM_CAP = 6        # the largest embedding dimension the estimate tries
FNN_THRESHOLD = 0.05   # the false-neighbour fraction a dimension must fall below


def estimate_embedding_params(channels, max_lag: int = 40) -> EmbeddingParams:
    """Shared (dim, delay) for a set of channels: max of per-channel estimates.

    A channel's delay is the first minimum of its ``AMI_BINS``-bin mutual
    information up to ``max_lag``.  Its dimension is the first whose
    false-neighbour fraction (``FNN_RTOL``, ``FNN_ATOL``) is below
    ``FNN_THRESHOLD``, or ``FNN_DIM_CAP`` if none up to it is.
    """
    delays, dims = [], []
    for ch in channels:
        mi = average_mutual_information(ch, max_lag=max_lag, bins=AMI_BINS)
        tau = first_minimum_lag(mi)
        delays.append(tau)
        fnn = false_nearest_neighbors(ch, tau=tau, m_max=FNN_DIM_CAP, rtol=FNN_RTOL,
                                      atol=FNN_ATOL)
        below = np.nonzero(fnn < FNN_THRESHOLD)[0]
        dims.append(int(below[0]) + 1 if len(below) else FNN_DIM_CAP)
    return EmbeddingParams(dim=max(dims), delay=max(delays))
