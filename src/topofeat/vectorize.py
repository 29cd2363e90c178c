"""Turning diagrams into fixed-length feature vectors.

The main descriptor is the persistence image: diagram points move to
(birth, persistence) coordinates, each gets a weight from a piecewise
(flat / linear ramp / quadratic) function of its persistence, is spread by
an isotropic Gaussian, and pixel values are the exact integrals of that
surface over the grid cells.  An image is a (rows, cols) array, and a
subject's feature row is that array flattened row by row; ``features.csv``
holds the only copy.  Landscape, entropy-curve and rank-curve
descriptors are provided for comparison runs.  Every descriptor takes the
finite H1 bars of a diagram as an (n, 2) array of (birth, death) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr


@dataclass(frozen=True)
class WeightParams:
    """Knots and levels of the piecewise persistence weighting.

    plateau      weight on (0, ramp_start]
    junction     weight reached at ramp_end; the quadratic tail grows from it
    ramp_start   end of the flat low-persistence region
    ramp_end     end of the linear ramp
    """

    plateau: float = 0.0
    junction: float = 3.0
    ramp_start: float = 100.0
    ramp_end: float = 200.0

    def __post_init__(self):
        if not 0 <= self.ramp_start < self.ramp_end:
            raise ValueError("need 0 <= ramp_start < ramp_end")
        if self.plateau < 0 or self.junction < 0:
            raise ValueError("weights must be nonnegative")


def birth_persistence_transform(bars: np.ndarray) -> np.ndarray:
    """(birth, death) -> (birth, death - birth).  Infinite features are refused."""
    bars = np.asarray(bars, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(bars)):
        raise ValueError("infinite feature present; exclude essential bars first")
    return np.column_stack([bars[:, 0], bars[:, 1] - bars[:, 0]])


def weight_fn(y, params: WeightParams) -> np.ndarray | float:
    """Piecewise persistence weight; zero on the axis itself.

    flat ``plateau`` up to ramp_start, linear from plateau to junction on
    (ramp_start, ramp_end], then (y - ramp_end)^2 + junction beyond.
    Continuous at both knots for every valid parameter set.
    """
    arr = np.asarray(y, dtype=float)
    a, c = params.plateau, params.junction
    t1, t2 = params.ramp_start, params.ramp_end
    ramp = a + (c - a) * (arr - t1) / (t2 - t1)
    quad = (arr - t2) ** 2 + c
    out = np.where(arr <= t1, a, np.where(arr <= t2, ramp, quad))
    out = np.where(arr <= 0, 0.0, out)
    if np.any(arr < 0):
        raise ValueError("persistence values must be nonnegative")
    return float(out) if np.isscalar(y) else out


EXTENT_PAD_SIGMAS = 3.0  # the image extent reaches this many sigmas past the points


def default_extent(points: np.ndarray, sigma: float):
    """Bounding box of the transformed points padded by EXTENT_PAD_SIGMAS * sigma."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return ((0.0, 1.0), (0.0, 1.0))
    pad = EXTENT_PAD_SIGMAS * sigma
    return (
        (float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad)),
        (float(pts[:, 1].min() - pad), float(pts[:, 1].max() + pad)),
    )


def persistence_image(points: np.ndarray, grid: tuple[int, int], extent, sigma: float,
                      params: WeightParams = WeightParams(),
                      normalize: bool = True) -> np.ndarray:
    """Rasterise weighted (birth, persistence) points into a ``grid`` of pixels.

    ``extent`` is ((birth lo, hi), (persistence lo, hi)) and ``sigma`` the
    Gaussian width; one cohort shares both (see ``default_extent``).  Each
    point contributes weight x Gaussian mass; a pixel integrates the
    resulting surface exactly (product of 1-D Gaussian CDF differences).
    Pixel ``[r, c]`` covers the r-th persistence bin and the c-th birth bin,
    both ascending.  With ``normalize`` the grid is divided by its max pixel
    (skipped when the image is identically zero).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    (x0, x1), (y0, y1) = extent
    if not (x1 > x0 and y1 > y0):
        raise ValueError("extent must span a nonempty rectangle")

    xs = np.linspace(x0, x1, cols + 1)
    ys = np.linspace(y0, y1, rows + 1)
    img = np.zeros((rows, cols), dtype=float)
    if len(pts):
        w = weight_fn(pts[:, 1], params)
        # per-point CDF differences along each axis; outer product per point
        cx = ndtr((xs[None, :] - pts[:, 0:1]) / sigma)
        cy = ndtr((ys[None, :] - pts[:, 1:2]) / sigma)
        dx = np.diff(cx, axis=1)            # (n, cols)
        dy = np.diff(cy, axis=1)            # (n, rows)
        img = np.einsum("n,nr,nc->rc", w, dy, dx)
    if normalize:
        peak = img.max()
        if peak > 0:
            img = img / peak
    return img


def persistence_landscape(bars: np.ndarray, k_max: int, grid: np.ndarray) -> np.ndarray:
    """k_max stacked landscape layers sampled on ``grid`` (row-major flatten).

    Layer k at t is the k-th largest tent value max(0, min(t-b, d-t)).
    """
    ts = np.asarray(grid, dtype=float)
    out = np.zeros((k_max, len(ts)), dtype=float)
    if len(bars):
        tents = np.minimum(ts[None, :] - bars[:, 0:1], bars[:, 1:2] - ts[None, :])
        tents = np.maximum(tents, 0.0)
        tents.sort(axis=0)
        n = len(bars)
        for k in range(min(k_max, n)):
            out[k] = tents[n - 1 - k]
    return out.reshape(-1)


def entropy_summary(bars: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Entropy of the lifetime distribution of the bars alive at each t.

    With lifetimes l_i of the alive bars and L their sum, the value is
    -sum (l_i/L) log(l_i/L); zero where nothing is alive.
    """
    ts = np.asarray(grid, dtype=float)
    out = np.zeros(len(ts), dtype=float)
    if not len(bars):
        return out
    lengths = bars[:, 1] - bars[:, 0]
    for i, t in enumerate(ts):
        alive = (bars[:, 0] <= t) & (t < bars[:, 1])
        li = lengths[alive]
        total = li.sum()
        if total > 0:
            p = li / total
            out[i] = float(-(p * np.log(p)).sum())
    return out


def betti_curve(bars: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Number of bars alive (birth <= t < death) at each grid position."""
    ts = np.asarray(grid, dtype=float)
    if not len(bars):
        return np.zeros(len(ts), dtype=float)
    alive = (bars[:, 0:1] <= ts[None, :]) & (ts[None, :] < bars[:, 1:2])
    return alive.sum(axis=0).astype(float)


def peak_split_knot(peak_values: np.ndarray, fallback: float = 1.0) -> float:
    """Median of per-diagram peak persistences.

    With one peak per subject and two roughly balanced groups, the median
    lands between the groups' typical strongest structures, which is where
    the first weighting knot belongs: the bulk (and the weaker group's
    peaks) below it, the distinguishing features above.
    """
    vals = np.asarray(peak_values, dtype=float)
    vals = vals[vals > 0]
    if len(vals) < 2:
        return fallback
    return float(np.median(vals))
