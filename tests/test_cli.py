import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import topofeat
from topofeat import _kernels
from topofeat.cli import _base_config, build_parser, main
from topofeat.cloud import PointCloud
from topofeat.config import PipelineConfig
from topofeat.embedding import estimate_embedding_params
from topofeat.ingest import bandpass_filter, load_recording, segment

COMMON = ["-h", "--help", "--config", "--out", "--seed", "--jobs"]
OPTION_STRINGS = {
    "ingest": COMMON + ["--input", "--rate", "--band", "--order", "--channels", "--window-sec",
                        "--no-bandpass"],
    "synth": COMMON + ["--subjects", "--segments", "--channels-n", "--rate", "--window-sec"],
    "embed": COMMON + ["--m", "--tau", "--auto-params", "--bins", "--rtol", "--atol"],
    "denoise": COMMON + ["--q", "--k", "--keep", "--iters", "--bandwidth", "--keep-fraction",
                         "--emit-density"],
    "vectorize": COMMON + ["--descriptor", "--pi-rows", "--pi-cols", "--sigma", "--plateau",
                           "--junction", "--ramp-start", "--ramp-end"],
    "classify": COMMON + ["--features", "--kernel", "--C", "--gamma", "--folds",
                          "--grid-search", "--report"],
    "run": COMMON + ["--input", "--rate", "--channels", "--window-sec", "--descriptor", "--folds",
                     "--kernel", "--grid-search"],
    "sweep": COMMON + ["--plateau-values", "--junction-values", "--folds", "--kernel",
                       "--grid-search", "--table"],
    "plot": ["-h", "--help", "--artifact", "--type", "--output"],
}


def run_cli(*args):
    return main(list(args))


def subcommands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def stagewise_run(out: Path) -> list[int]:
    """Exit codes of synth and then each stage in turn on ``out``; the denoise
    stage dumps densities to dens.csv and classify copies its report to copy.json."""
    o = str(out)
    return [run_cli("synth", "--out", o, "--subjects", "2", "--segments", "2",
                    "--channels-n", "2", "--seed", "3", "--window-sec", "2"),
            run_cli("embed", "--out", o, "--m", "2", "--tau", "10"),
            run_cli("denoise", "--out", o, "--q", "5", "--k", "60", "--keep", "50",
                    "--iters", "50", "--seed", "3", "--keep-fraction", "0.99",
                    "--emit-density", str(out / "dens.csv")),
            run_cli("vectorize", "--out", o, "--descriptor", "pi"),
            run_cli("classify", "--out", o, "--folds", "2", "--seed", "3",
                    "--report", str(out / "copy.json"))]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A finished stage-wise run."""
    out = tmp_path_factory.mktemp("cli")
    assert stagewise_run(out) == [0] * 5
    return out


@pytest.mark.parametrize("spec", ["identity:abc", "manual:1,2,x,4"])
def test_bad_bandwidth_names_the_option(tmp_path, capsys, spec):
    assert run_cli("denoise", "--out", str(tmp_path), "--bandwidth", spec) == 1
    err = capsys.readouterr().err
    assert f"bandwidth {spec!r}" in err
    assert "is not a number" in err


@pytest.mark.parametrize("argv, message", [
    (["classify", "--C", "nan"], "C must be finite"),
    (["classify", "--gamma", "nan"], "gamma must be finite"),
    (["vectorize", "--sigma", "nan"], "pi_sigma must be finite"),
    (["vectorize", "--junction", "inf"], "weight_junction must be finite"),
    (["run", "--rate", "nan"], "rate must be finite"),
    (["denoise", "--bandwidth", "identity:inf"], "bandwidth 'identity:inf': 'inf' must be finite"),
    (["run", "--rate", "1e200", "--window-sec", "1e200"], "window_sec * rate must be finite"),
], ids=["C", "gamma", "sigma", "junction", "rate", "bandwidth", "window"])
def test_non_finite_value_exits_1_naming_the_key(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_classify_names_a_features_file_without_feature_columns(tmp_path, capsys):
    features = tmp_path / "f.csv"
    features.write_text("label\n1\n0\n")
    assert run_cli("classify", "--features", str(features), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == ("error: stage classify: the header names no column after "
                                       f"the id [{features}]\n")


class TestSurface:
    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_option_strings_are_pinned(self, command):
        parser = subcommands()[command]
        assert [s for a in parser._actions for s in a.option_strings] == OPTION_STRINGS[command]

    def test_no_unpinned_subcommand(self):
        assert set(subcommands()) == set(OPTION_STRINGS)

    def test_readme_cli_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()]
        assert {argv[1] for argv in commands} == set(OPTION_STRINGS)
        for argv in commands:
            assert argv[0] == "topofeat"
            build_parser().parse_args(argv[1:])

    def test_every_config_field_is_a_flag(self):
        dests = {a.dest for p in subcommands().values() for a in p._actions}
        missing = {f.name for f in fields(PipelineConfig)} - dests - {"band_low", "band_high"}
        assert missing == set()
        cfg = _base_config(build_parser().parse_args(["ingest", "--input", "x", "--band", "1:20"]))
        assert (cfg.band_low, cfg.band_high) == (1.0, 20.0)

    @pytest.mark.parametrize("argv, option", [
        (["classify", "--gamma", "abc"], "--gamma"),
        (["sweep", "--plateau-values", "a"], "--plateau-values"),
        (["ingest", "--band", "1"], "--band"),
        (["embed", "--auto-params", "yes"], "--auto-params"),
    ], ids=["gamma", "plateau_values", "band", "auto_params"])
    def test_bad_value_is_a_usage_error_naming_the_option(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: expected" in capsys.readouterr().err

    def test_embed_auto_params_on_matches_the_estimator(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("synth", "--out", str(out), "--subjects", "1", "--segments", "1",
                       "--channels-n", "1", "--window-sec", "2") == 0
        assert run_cli("embed", "--out", str(out), "--auto-params", "on", "--bins", "12",
                       "--rtol", "8", "--atol", "1.5") == 0
        rec = bandpass_filter(load_recording(out / "input" / "a000.csv", rate=128.0), 0.5, 50.0)
        data = segment(rec, 256)[0].data
        expected = estimate_embedding_params(list(data), bins=12, rtol=8.0, atol=1.5)
        assert json.loads((out / "params.json").read_text()) == {"m": expected.dim,
                                                                 "tau": expected.delay}


class TestSubcommands:
    def test_stagewise_run(self, tmp_path):
        assert stagewise_run(tmp_path) == [0] * 5
        assert (tmp_path / "dens.csv").read_text().startswith("subject_id,birth,death,density")
        report = json.loads((tmp_path / "copy.json").read_text())
        assert set(report) >= {"acc", "se", "sp", "per_fold"}

    def test_plot_outputs(self, workdir):
        diagram = next(iter((workdir / "diagrams").glob("*.csv")))
        svg = workdir / "d.svg"
        assert run_cli("plot", "--artifact", str(diagram), "--type", "diagram",
                       "--output", str(svg)) == 0
        assert svg.read_text().startswith("<svg")
        bc = workdir / "b.svg"
        assert run_cli("plot", "--artifact", str(diagram), "--type", "barcode",
                       "--output", str(bc)) == 0
        subject = next(iter((workdir / "subject_diagrams").glob("*.csv")))
        png = workdir / "i.png"
        assert run_cli("plot", "--artifact", str(subject), "--type", "image",
                       "--output", str(png)) == 0
        assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    @pytest.mark.parametrize("meta", ["missing", "without_grid", "not_json", "not_an_object"])
    def test_plot_image_needs_the_grid_in_the_meta_file(self, workdir, tmp_path, capsys, meta):
        run = tmp_path / "run"
        shutil.copytree(workdir / "subject_diagrams", run / "subject_diagrams")
        if meta == "without_grid":
            recorded = json.loads((workdir / "vectorize_meta.json").read_text())
            del recorded["grid"]
            (run / "vectorize_meta.json").write_text(json.dumps(recorded))
        elif meta != "missing":
            (run / "vectorize_meta.json").write_text("{bad" if meta == "not_json" else "[1]")
        subject = next(iter((run / "subject_diagrams").glob("*.csv")))
        assert run_cli("plot", "--artifact", str(subject), "--type", "image",
                       "--output", str(tmp_path / "i.png")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(run.resolve() / "vectorize_meta.json") in err
        assert not (tmp_path / "i.png").exists()
        if meta in ("without_grid", "not_an_object"):
            assert "delete it and run vectorize again" in err

    @pytest.mark.parametrize("kind, output", [("diagram", "d.svg"), ("image", "i.png")])
    def test_plot_names_a_ragged_diagram(self, workdir, tmp_path, capsys, kind, output):
        run = tmp_path / "run"
        shutil.copytree(workdir / "subject_diagrams", run / "subject_diagrams")
        shutil.copy(workdir / "vectorize_meta.json", run)
        subject = next(iter((run / "subject_diagrams").glob("*.csv")))
        subject.write_text("dim,birth,death\n1,0.5\n")
        assert run_cli("plot", "--artifact", str(subject), "--type", kind,
                       "--output", str(tmp_path / output)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {subject}: ragged rows: line 2 has 2 cells, expected 3\n"
        assert not (tmp_path / output).exists()

    def test_plot_deterministic(self, workdir):
        diagram = next(iter((workdir / "diagrams").glob("*.csv")))
        s1, s2 = workdir / "p1.svg", workdir / "p2.svg"
        run_cli("plot", "--artifact", str(diagram), "--type", "diagram", "--output", str(s1))
        run_cli("plot", "--artifact", str(diagram), "--type", "diagram", "--output", str(s2))
        assert s1.read_bytes() == s2.read_bytes()

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"out_dir = {workdir}\nfolds = 2\nseed = 3\n")
        assert run_cli("classify", "--config", str(cfgfile)) == 0

    def test_sweep(self, workdir, tmp_path):
        table = tmp_path / "table.json"
        assert run_cli("sweep", "--out", str(workdir), "--plateau-values", "0,1",
                       "--junction-values", "3", "--table", str(table), "--seed", "3",
                       "--folds", "2") == 0
        rows = json.loads(table.read_text())
        assert len(rows) == 2


class TestRun:
    def test_channels_selects_inputs(self, tmp_path):
        rng = np.random.default_rng(7)
        src = tmp_path / "src"
        src.mkdir()
        t = np.arange(100) / 25.0
        for i in range(6):
            sine = np.sin(2 * np.pi * (1 + i % 3) * t)
            data = np.column_stack([sine, rng.normal(size=100), sine + rng.normal(size=100)])
            lines = ["Fz,F8,C3"] + [",".join(repr(float(v)) for v in row) for row in data]
            (src / f"s{i}.csv").write_text("\n".join(lines) + "\n")
        (src / "labels.csv").write_text("subject_id,label\n"
                                        + "".join(f"s{i},{i % 2}\n" for i in range(6)))
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("rate = 25\nwindow_sec = 2\nband_low = 0.5\nband_high = 10\n"
                           "q = 3\nk = 30\nkeep_n = 20\nfolds = 3\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfgfile), "--input", str(src), "--out", str(out),
                       "--channels", "Fz,C3") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["channels"] == "Fz,C3"
        joints = list((out / "joint").glob("*.csv"))
        assert joints  # m = 2 coordinates for each of the two kept channels:
        assert {PointCloud.from_csv(p).points.shape[1] for p in joints} == {2 * 2}
        assert (out / "report.json").exists()


class TestErrors:
    def test_missing_input_exits_nonzero(self, tmp_path):
        assert run_cli("ingest", "--input", str(tmp_path / "none"),
                       "--out", str(tmp_path / "o")) == 1

    def test_stage_error_message_names_stage(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        code = run_cli("embed", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        assert "ingest" in captured.err

    def test_bad_flag_value(self, workdir, capsys):
        code = run_cli("denoise", "--out", str(workdir), "--keep-fraction", "1.5")
        assert code == 1

    def test_sweep_without_compiler_names_it(self, workdir, tmp_path, capsys, monkeypatch):
        # sweep fits its SVMs outside any stage, so the build error reaches main itself
        monkeypatch.setattr(_kernels, "_CC", str(tmp_path / "no-such-gcc"))
        monkeypatch.setattr(_kernels, "_CACHE", tmp_path / "cache")
        monkeypatch.setattr(_kernels, "_LIB", None)
        code = run_cli("sweep", "--out", str(workdir), "--plateau-values", "0",
                       "--junction-values", "3", "--seed", "3", "--folds", "2")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "C compiler" in err and "no-such-gcc" in err

    def test_subprocess_entry_point(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(topofeat.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "topofeat.cli", "ingest",
                                 "--input", str(tmp_path / "none"), "--out", str(tmp_path / "o")],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 1
        assert "stage ingest" in result.stderr
