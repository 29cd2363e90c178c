import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import EDGE_VALUES
from scipy.signal import butter, freqz

from topofeat import ingest
from topofeat.classify import LabeledDataset, load_features_csv, save_features_csv
from topofeat.cloud import PointCloud
from topofeat.fileio import read_table
from topofeat.homology import INF, PersistenceDiagram
from topofeat.ingest import (RawRecording, bandpass_filter, load_recording, save_recording,
                             segment, select_channels)

TEN_TWENTY = ["Fz", "Cz", "Pz", "C3", "T3", "C4", "T4", "Fp1", "Fp2", "F3",
              "F4", "F7", "F8", "P3", "P4", "T5", "T6", "O1", "O2"]


def cell_by_cell_table(path, ids=False, ints=()):
    """Oracle for ``read_table``: ``float()`` on each cell of each line in turn,
    after a leading text cell with ``ids``, and ``int()`` too on a cell in a
    column named in ``ints``.  Blank lines are skipped but counted, so an error
    names the file's line.  Returns the header, the text cells and the number rows.
    """
    numbered = [(i, ln) for i, ln in enumerate(path.read_text().splitlines(), start=1)
                if ln.strip()]
    names = [h.strip() for h in numbered[0][1].split(",")]
    width = len(numbered[0][1].split(","))
    texts, rows = [], []
    for lineno, ln in numbered[1:]:
        cells = ln.split(",")
        if len(cells) != width:
            raise ValueError(f"ragged rows: line {lineno} has {len(cells)} cells, expected {width}")
        try:
            rows.append([float(c) for c in cells[ids:]])
        except ValueError as exc:
            raise ValueError(f"non-numeric cell at line {lineno}: {exc}") from None
        try:
            [int(cells[names.index(name)]) for name in ints if name in names]
        except ValueError as exc:
            raise ValueError(f"non-integer cell at line {lineno}: {exc}") from None
        texts.append(cells[0])
    return names, (texts if ids else None), rows


def cell_by_cell_load(path, rate=128.0):
    """Oracle for ``load_recording``: ``cell_by_cell_table`` of the file."""
    header, _, rows = cell_by_cell_table(path)
    data = np.asarray(rows, dtype=float).T.reshape(len(header), -1)
    return RawRecording(header, data, rate)


def per_value_lines(header, rows):
    """Oracle for the table writers: each cell in turn, text as it is, an int as
    ``str`` and any other number as ``repr(float(v))``."""
    def cell(v):
        if isinstance(v, str):
            return v
        return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
    return [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadRecording:
    def test_two_channel_csv(self, tmp_path):
        p = tmp_path / "rec.csv"
        write_csv(p, ["a", "b"], [[1, 2], [3, 4], [5, 6], [7, 8]])
        rec = load_recording(p, rate=128.0)
        assert rec.channels == ["a", "b"]
        assert rec.data.shape == (2, 4)
        assert rec.data[1].tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged rows"):
            load_recording(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("a,b\n1,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_recording(p)

    EDGE_CELLS = ["-0.0", "5e-324", "1.7976931348623157e308", " 2.5 ", "+3", "1_000",
                  "0.10000000000000001", "-2.2250738585072014e-308", "1e-320", "7"]

    def test_every_cell_parses_as_float_does(self, tmp_path, rng):
        seventeen = [f"{v:.17g}" for v in rng.normal(size=30) * 10.0 ** rng.integers(-8, 8, 30)]
        cells = self.EDGE_CELLS + seventeen
        p = tmp_path / "rec.csv"
        p.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in zip(cells, cells[::-1])))
        got, ref = load_recording(p, rate=32.0), cell_by_cell_load(p, rate=32.0)
        assert got.channels == ref.channels
        assert got.data.shape == ref.data.shape == (2, len(cells))
        assert got.data.tobytes() == ref.data.tobytes()
        assert got.data.strides == ref.data.strides

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2,3\n4\n", "ragged rows: line 2 has 3 cells"),  # right total, ragged rows
        ("a,b\n1,2\n3\n", "ragged rows: line 3 has 1 cells"),
        ("a,b\n1,2\n\n3,x\n", "non-numeric cell at line 4: could not convert string to float: 'x'"),
        ("a,b\n\n\n1,2,3\n", "ragged rows: line 4 has 3 cells"),
        ("\n\na,b\n1,2\n \n\n3,x\n", "non-numeric cell at line 7"),
        ("a,b\n1,x\n1,2,3\n", "non-numeric cell at line 2"),  # first bad line wins
        ("a,b\n1,2,3\n1,x\n", "ragged rows: line 2"),
        ("a,b\n1,2\n3, \n", "non-numeric cell at line 3"),
    ], ids=["total_right", "short_row", "bad_cell_after_blank", "ragged_after_blanks",
            "blanks_before_header", "bad_cell_then_ragged", "ragged_then_bad_cell", "blank_cell"])
    def test_bad_line_named_as_cell_by_cell(self, tmp_path, text, message):
        p = tmp_path / "rec.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message) as got:
            load_recording(p)
        with pytest.raises(ValueError) as ref:
            cell_by_cell_load(p)
        assert str(got.value) == str(ref.value)

    def test_header_only_gives_no_samples(self, tmp_path):
        p = tmp_path / "rec.csv"
        p.write_text("a,b,c\n")
        assert load_recording(p).data.shape == (3, 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_recording(tmp_path / "nope.csv")

    def test_declared_layout_orders_channels(self, tmp_path, rng):
        p = tmp_path / "rec.csv"
        shuffled = list(TEN_TWENTY)
        rng.shuffle(shuffled)
        write_csv(p, shuffled, rng.normal(size=(5, 19)).tolist())
        rec = select_channels(load_recording(p, rate=128.0), TEN_TWENTY)
        assert rec.channels == TEN_TWENTY

    def test_unknown_declared_channel(self, tmp_path):
        p = tmp_path / "rec.csv"
        write_csv(p, ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError, match="unknown channel"):
            select_channels(load_recording(p), ["a", "XX"])


class TestBandpass:
    RATE = 128.0

    def run_sine(self, freq, seconds=20):
        t = np.arange(int(self.RATE * seconds)) / self.RATE
        sig = np.sin(2 * np.pi * freq * t)
        rec = RawRecording(["c"], sig.reshape(1, -1), self.RATE)
        out = bandpass_filter(rec, 0.5, 50.0, 4).data[0]
        mid = out[len(out) // 4: 3 * len(out) // 4]
        return (mid.max() - mid.min()) / 2

    def analytic_gain_sq(self, freq):
        # zero-phase application squares the one-pass magnitude response
        b, a = butter(4, [0.5 / 64, 50.0 / 64], btype="band")
        _, h = freqz(b, a, worN=[2 * np.pi * freq / self.RATE])
        return float(np.abs(h[0]) ** 2)

    def test_dc_rejected(self):
        rec = RawRecording(["c"], np.ones((1, 2560)), self.RATE)
        out = bandpass_filter(rec, 0.5, 50.0, 4).data[0]
        assert np.abs(out[256:-256]).max() < 1e-3

    def test_passband_10hz(self):
        assert self.analytic_gain_sq(10.0) == pytest.approx(1.0, abs=1e-6)
        assert self.run_sine(10.0) == pytest.approx(1.0, rel=0.02)

    def test_stopband_60hz(self):
        analytic_db = -10 * np.log10(self.analytic_gain_sq(60.0))
        assert analytic_db >= 10.0
        measured_db = -20 * np.log10(self.run_sine(60.0))
        assert measured_db >= 10.0

    def test_length_preserved(self, rng):
        rec = RawRecording(["c"], rng.normal(size=(1, 700)), self.RATE)
        assert bandpass_filter(rec, 0.5, 50.0, 4).data.shape == (1, 700)

    def test_linearity(self, rng):
        x = rng.normal(size=(1, 1000))
        y = rng.normal(size=(1, 1000))
        a, b = 2.5, -1.25
        fx = bandpass_filter(RawRecording(["c"], x, self.RATE), 0.5, 50.0, 4).data
        fy = bandpass_filter(RawRecording(["c"], y, self.RATE), 0.5, 50.0, 4).data
        fxy = bandpass_filter(RawRecording(["c"], a * x + b * y, self.RATE), 0.5, 50.0, 4).data
        scale = np.abs(fxy).max()
        assert np.abs(fxy - (a * fx + b * fy)).max() / scale < 1e-9

    def test_bad_cutoffs(self):
        rec = RawRecording(["c"], np.zeros((1, 100)), self.RATE)
        with pytest.raises(ValueError):
            bandpass_filter(rec, 0.5, 70.0, 4)
        with pytest.raises(ValueError):
            bandpass_filter(rec, 50.0, 0.5, 4)

    def test_coefficients_designed_once_read_only(self):
        first = ingest._bandpass_coefficients(4, 0.5 / 64, 50.0 / 64)
        assert ingest._bandpass_coefficients(4, 0.5 / 64, 50.0 / 64) is first
        for got, fresh in zip(first, butter(4, [0.5 / 64, 50.0 / 64], btype="band")):
            assert not got.flags.writeable
            assert got.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            first[0][0] = 0.0

    def test_cold_and_warm_coefficients_filter_alike(self, rng):
        rec = RawRecording(["c", "d"], rng.normal(size=(2, 700)), self.RATE)
        ingest._bandpass_coefficients.cache_clear()
        cold = bandpass_filter(rec, 0.5, 50.0, 4).data
        warm = bandpass_filter(rec, 0.5, 50.0, 4).data
        assert ingest._bandpass_coefficients.cache_info().hits >= 1
        assert cold.tobytes() == warm.tobytes()

    def test_odd_order(self):
        rec = RawRecording(["c"], np.zeros((1, 100)), self.RATE)
        with pytest.raises(ValueError, match="order"):
            bandpass_filter(rec, 0.5, 50.0, 3)


class TestSelectChannels:
    def make(self, rng):
        return RawRecording(TEN_TWENTY, rng.normal(size=(19, 30)), 128.0)

    def test_relevant_six(self, rng):
        rec = self.make(rng)
        out = select_channels(rec, ["Fz", "F8", "F3", "C4", "C3", "F7"])
        assert out.channels == ["Fz", "F8", "F3", "C4", "C3", "F7"]
        assert np.array_equal(out.data[0], rec.data[0])
        assert np.array_equal(out.data[1], rec.data[12])

    def test_identity(self, rng):
        rec = self.make(rng)
        out = select_channels(rec, TEN_TWENTY)
        assert out.channels == rec.channels
        assert np.array_equal(out.data, rec.data)

    def test_unknown_name(self, rng):
        with pytest.raises(ValueError, match="unknown channel"):
            select_channels(self.make(rng), ["Fz", "XX"])

    def test_idempotent(self, rng):
        rec = self.make(rng)
        names = ["Pz", "O1", "Fz"]
        once = select_channels(rec, names)
        twice = select_channels(once, names)
        assert once.channels == twice.channels
        assert np.array_equal(once.data, twice.data)


class TestSegment:
    def test_window_samples_at_128hz(self):
        assert int(round(4.0 * 128.0)) == 512

    def test_floor_division(self, rng):
        rec = RawRecording(["a"], rng.normal(size=(1, 1100)), 128.0)
        segs = segment(rec, 512)
        assert len(segs) == 2
        assert all(s.data.shape[1] == 512 for s in segs)

    def test_too_short(self, rng):
        rec = RawRecording(["a"], rng.normal(size=(1, 511)), 128.0)
        assert segment(rec, 512) == []

    @given(n=st.integers(1, 400), w=st.integers(1, 97))
    def test_reconstruction(self, n, w):
        data = np.arange(2 * n, dtype=float).reshape(2, n)
        rec = RawRecording(["a", "b"], data, 10.0)
        segs = segment(rec, w)
        used = n - n % w
        if segs:
            rebuilt = np.concatenate([s.data for s in segs], axis=1)
            assert np.array_equal(rebuilt, data[:, :used])
        assert len(segs) == n // w

    def test_segment_metadata(self, rng):
        # each window is a recording with the source's channels and rate, in order
        rec = RawRecording(["a"], rng.normal(size=(1, 100)), 128.0)
        segs = segment(rec, 30)
        assert all(type(s) is RawRecording and s.channels == ["a"] and s.rate == 128.0
                   for s in segs)
        assert [s.data.tobytes() for s in segs] == [rec.data[:, k:k + 30].tobytes()
                                                    for k in (0, 30, 60)]


class TestRecordingIO:
    def test_roundtrip(self, tmp_path, rng):
        data = rng.normal(size=(2, 64)) * 10.0 ** rng.integers(-300, 300, size=(2, 64))
        data[0, :3] = [-0.0, 0.1, 5e-324]
        rec = RawRecording(["a", "b"], data, 32.0)
        save_recording(rec, tmp_path / "subj.csv")
        loaded = load_recording(tmp_path / "subj.csv", rate=32.0)
        assert loaded.channels == ["a", "b"]
        assert loaded.data.tobytes() == data.tobytes()
        lines = (tmp_path / "subj.csv").read_text().splitlines()
        assert lines == per_value_lines(["a", "b"], data.T)


def write_artifact(kind, path):
    """Write an artifact of ``kind`` that holds EDGE_VALUES (and ``inf`` deaths);
    returns its reader, its content, the header and rows ``per_value_lines``
    takes, and the ``cell_by_cell_table`` arguments of its format."""
    vals = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
    if kind == "recording":
        save_recording(RawRecording(["a", "b"], vals, 32.0), path)
        return (lambda p: load_recording(p).data), vals, ["a", "b"], vals.T, {}
    if kind == "joint_cloud":
        cloud = PointCloud(vals.T, np.arange(len(EDGE_VALUES)) * 3 + 7)
        cloud.to_csv(path)
        rows = [[*pt, t] for pt, t in zip(cloud.points, cloud.time_index)]
        return (lambda p: PointCloud.from_csv(p).points), cloud.points, ["x0", "x1", "t"], rows, \
            {"ints": ("t",)}
    if kind == "diagram":
        diagram = PersistenceDiagram([(0, v, INF) for v in EDGE_VALUES]
                                     + [(1, min(a, b), max(a, b)) for a, b in vals.T])
        diagram.to_csv(path)
        return (lambda p: np.array(PersistenceDiagram.from_csv(p).features)), \
            np.array(diagram.features), ["dim", "birth", "death"], diagram.features, \
            {"ints": ("dim",)}
    ids, labels = ["s0", "s1"], [1, 0]
    save_features_csv(path, LabeledDataset(vals, labels, subject_ids=ids))
    header = ["subject_id", *(f"f{i}" for i in range(len(EDGE_VALUES))), "label"]
    return (lambda p: load_features_csv(p).features), vals, header, \
        [[sid, *row, lab] for sid, row, lab in zip(ids, vals, labels)], \
        {"ids": True, "ints": ("label",)}


ARTIFACTS = ["recording", "joint_cloud", "diagram", "features"]
# (artifact, damage): how the fourth line of the file, after two blank lines, is broken
DAMAGES = [(kind, damage) for kind in ARTIFACTS for damage in ("ragged", "non_numeric")] + [
    ("joint_cloud", "non_integer"), ("diagram", "non_integer"), ("features", "non_integer")]


class TestArtifactTables:
    """Every artifact's writer against ``per_value_lines`` and its reader
    against ``cell_by_cell_table``."""

    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_text_equals_per_value_lines(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        _, _, header, rows, _ = write_artifact(kind, path)
        assert path.read_text().splitlines() == per_value_lines(header, rows)
        assert path.read_text().endswith("\n") and not path.read_text().endswith("\n\n")

    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_read_back_is_bit_exact(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        read, content, _, _, _ = write_artifact(kind, path)
        back = read(path)
        assert back.shape == content.shape and back.tobytes() == content.tobytes()

    def test_ids_without_a_number_column_fail(self):
        with pytest.raises(ValueError, match="^the header names no column after the id$"):
            read_table(b"label\n1\n0\n", ids=True, ints=("label",))

    @pytest.mark.parametrize("kind, damage", DAMAGES, ids=[f"{k}-{d}" for k, d in DAMAGES])
    def test_bad_line_named_as_cell_by_cell(self, tmp_path, kind, damage):
        path = tmp_path / f"{kind}.csv"
        read, _, header, _, fmt = write_artifact(kind, path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["", "  "]
        cells = lines[3].split(",")
        if damage == "ragged":
            del cells[-1]
        elif damage == "non_numeric":
            cells[-2] = "x"
        else:
            cells[header.index(fmt["ints"][0])] = "1.5"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as ref:
            cell_by_cell_table(path, **fmt)
        assert "line 4" in str(ref.value)
        with pytest.raises(ValueError) as got:
            read(path)
        assert str(got.value) == str(ref.value)
