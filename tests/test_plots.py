import json
import math
import zlib

import numpy as np

from topofeat.homology import INF, PersistenceDiagram, rips_diagram
from topofeat.plots import plot, plot_barcode, plot_diagram, write_png_gray
from topofeat.vectorize import WeightParams, persistence_image


class TestDiagramSvg:
    def test_empty_diagram_axes_and_diagonal_only(self, tmp_path):
        path = tmp_path / "empty.svg"
        plot_diagram(PersistenceDiagram(), path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == 3  # diagonal + two axes
        assert "<circle" not in text

    def test_unit_square_marker(self, tmp_path):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        diagram = rips_diagram(square)
        path = tmp_path / "square.svg"
        plot_diagram(diagram, path)
        text = path.read_text()
        assert text.count("<circle") == len(diagram.features)
        # one loop marker above the diagonal: birth 1, death sqrt(2)
        h1 = diagram.bars(1)
        assert len(h1) == 1 and abs(h1[0, 1] - math.sqrt(2)) < 1e-9

    def test_infinite_feature_drawn_hollow(self, tmp_path):
        diagram = PersistenceDiagram([(0, 0.0, INF), (1, 0.2, 0.9)])
        path = tmp_path / "inf.svg"
        plot_diagram(diagram, path)
        assert 'fill="none"' in path.read_text()

    def test_barcode_rows(self, tmp_path):
        diagram = PersistenceDiagram([(0, 0.0, 1.0), (1, 0.5, 2.0), (0, 0.0, INF)])
        path = tmp_path / "bars.svg"
        plot_barcode(diagram, path)
        text = path.read_text()
        assert text.count("stroke-width=\"3\"") == 3


class TestPng:
    def test_zero_image_is_uniform_black(self, tmp_path):
        path = tmp_path / "zero.png"
        write_png_gray(np.zeros((8, 8)), path)
        raw = path.read_bytes()
        assert raw[:8] == b"\x89PNG\r\n\x1a\n"
        idat_start = raw.index(b"IDAT") + 4
        idat_len = int.from_bytes(raw[idat_start - 8: idat_start - 4], "big")
        pixels = zlib.decompress(raw[idat_start: idat_start + idat_len])
        rows = [pixels[r * 9 + 1: (r + 1) * 9] for r in range(8)]
        assert all(b == 0 for row in rows for b in row)

    def test_intensities_clipped_and_scaled(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])
        path = tmp_path / "g.png"
        write_png_gray(img, path)
        raw = path.read_bytes()
        idat_start = raw.index(b"IDAT") + 4
        idat_len = int.from_bytes(raw[idat_start - 8: idat_start - 4], "big")
        pixels = zlib.decompress(raw[idat_start: idat_start + idat_len])
        # row 0 of the file is the TOP of the image = last grid row
        assert list(pixels) == [0, 255, 255, 0, 0, 128]


class TestPlotDispatch:
    def test_unknown_kind(self, tmp_path):
        (tmp_path / "d.csv").write_text("dim,birth,death\n")
        try:
            plot(tmp_path / "d.csv", "surface", tmp_path / "x.svg")
        except ValueError as exc:
            assert "unknown artifact" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_image_roundtrip(self, tmp_path):
        diagram = PersistenceDiagram([(0, 0.0, INF), (1, 0.5, 2.0), (1, 1.0, 1.5)])
        (tmp_path / "subject_diagrams").mkdir()
        diagram.to_csv(tmp_path / "subject_diagrams" / "s.csv")
        meta = {"grid": [3, 4], "extent": [[0.0, 2.0], [0.0, 2.0]], "sigma": 0.3,
                "weights": {"plateau": 1.0, "junction": 2.0, "ramp_start": 0.2, "ramp_end": 1.0}}
        (tmp_path / "vectorize_meta.json").write_text(json.dumps(meta))
        plot(tmp_path / "subject_diagrams" / "s.csv", "image", tmp_path / "img.png")
        assert (tmp_path / "img.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        pixels = persistence_image(np.array([[0.5, 1.5], [1.0, 0.5]]), (3, 4),
                                   ((0.0, 2.0), (0.0, 2.0)), 0.3, WeightParams(1.0, 2.0, 0.2, 1.0))
        write_png_gray(pixels, tmp_path / "expected.png")
        assert (tmp_path / "img.png").read_bytes() == (tmp_path / "expected.png").read_bytes()
