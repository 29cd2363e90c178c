"""Point-cloud container shared by the embedding, denoising and homology stages."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fileio import write_atomic


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
        """Write ``x0..x{d-1}`` (and ``t``) columns of ``repr`` floats, which ``float()``
        reads back exactly."""
        cols = [f"x{i}" for i in range(self.dim)]
        rows = [",".join(map(repr, row)) for row in self.points.tolist()]
        if self.time_index is not None:
            cols.append("t")
            rows = [f"{row},{t}" for row, t in zip(rows, self.time_index.tolist())]
        write_atomic(path, "\n".join([",".join(cols), *rows]) + "\n")

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        text = Path(path).read_text().strip().splitlines()
        header = text[0].split(",")
        has_t = header[-1] == "t"
        rows = [ln.split(",") for ln in text[1:]]
        if has_t:
            pts = np.array([list(map(float, r[:-1])) for r in rows], dtype=float)
            ti = np.array([int(r[-1]) for r in rows], dtype=int)
            return cls(pts.reshape(len(rows), -1), ti)
        pts = np.array([list(map(float, r)) for r in rows], dtype=float)
        return cls(pts.reshape(len(rows), -1))
