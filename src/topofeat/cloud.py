"""Point clouds of the embedding, denoising and homology stages, stored as fileio tables."""

from __future__ import annotations

import numpy as np

from .fileio import read_table, write_table


def as_points(cloud) -> np.ndarray:
    """The (n, d) coordinates of a PointCloud or array; an empty one keeps n = 0."""
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    return pts if pts.ndim == 2 else pts.reshape(len(pts), -1 if pts.size else 0)


class PointCloud:
    """Finite set of d-dimensional points, optionally tagged with sample indices.

    ``time_index`` (when present) records, per point, the sample index of the
    embedding vector's first coordinate; it must be strictly increasing.
    """

    def __init__(self, points: np.ndarray, time_index: np.ndarray | None = None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must form an (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        self.points = pts
        if time_index is not None:
            ti = np.asarray(time_index, dtype=int)
            if ti.shape != (len(pts),):
                raise ValueError("time_index length must match point count")
            if len(ti) > 1 and not np.all(np.diff(ti) > 0):
                raise ValueError("time_index must be strictly increasing")
            self.time_index = ti
        else:
            self.time_index = None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def take(self, indices: np.ndarray) -> "PointCloud":
        """Sub-cloud at the given positional indices (kept in the given order)."""
        idx = np.asarray(indices, dtype=int)
        ti = self.time_index[idx] if self.time_index is not None else None
        return PointCloud(self.points[idx], ti)

    def to_csv(self, path) -> None:
        """Write ``x0..x{d-1}`` (and ``t``) columns as a :mod:`topofeat.fileio` table."""
        cols, rows = [f"x{i}" for i in range(self.dim)], self.points.tolist()
        if self.time_index is not None:
            cols.append("t")
            rows = [[*row, t] for row, t in zip(rows, self.time_index.tolist())]
        write_table(path, [cols, *rows])

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        table = read_table(path, ints=("t",))
        values = table.array()
        if table.header[-1] == "t":
            return cls(np.ascontiguousarray(values[:, :-1]), values[:, -1])
        return cls(values)
