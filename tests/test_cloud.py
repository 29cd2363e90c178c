import numpy as np
import pytest
from oracles import EDGE_VALUES

from topofeat.cloud import PointCloud


def per_value_text(cloud):
    """Oracle for ``PointCloud.to_csv``: ``repr(float(v))`` of each coordinate in turn."""
    cols = [f"x{i}" for i in range(cloud.dim)]
    lines = []
    if cloud.time_index is not None:
        lines.append(",".join(cols + ["t"]))
        for row, t in zip(cloud.points, cloud.time_index):
            lines.append(",".join(repr(float(v)) for v in row) + f",{int(t)}")
    else:
        lines.append(",".join(cols))
        for row in cloud.points:
            lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def edge_cloud(rng, timed):
    pts = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
    pts.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    return PointCloud(pts, np.arange(40) * 3 + 7 if timed else None)


class TestCsv:
    @pytest.mark.parametrize("timed", [True, False], ids=["time_index", "no_time_index"])
    def test_text_equals_per_value_writer(self, tmp_path, rng, timed):
        cloud = edge_cloud(rng, timed)
        cloud.to_csv(tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_text() == per_value_text(cloud)

    @pytest.mark.parametrize("timed", [True, False], ids=["time_index", "no_time_index"])
    def test_roundtrip_is_bit_exact(self, tmp_path, rng, timed):
        cloud = edge_cloud(rng, timed)
        cloud.to_csv(tmp_path / "c.csv")
        back = PointCloud.from_csv(tmp_path / "c.csv")
        assert back.points.shape == cloud.points.shape
        assert back.points.tobytes() == cloud.points.tobytes()
        if timed:
            assert back.time_index.tolist() == cloud.time_index.tolist()
        else:
            assert back.time_index is None
