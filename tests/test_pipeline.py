import hashlib
import importlib.util
import json
import math
import shutil
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from topofeat import _kernels, pipeline
from topofeat.classify import load_features_csv
from topofeat.cli import main
from topofeat.cloud import PointCloud
from topofeat.config import PipelineConfig, load_config, validate_config
from topofeat.embedding import estimate_embedding_params
from topofeat.fileio import write_atomic
from topofeat.homology import PersistenceDiagram, rips_diagram
from topofeat.ingest import (RawRecording, bandpass_filter, load_recording, save_recording,
                             segment, select_channels)
from topofeat.plots import write_png_gray
from topofeat.pipeline import (StageError, cut_recording, load_subject_diagrams, run_pipeline,
                               stage_classify, stage_denoise, stage_embed, stage_ingest,
                               stage_synth, stage_vectorize, sweep_weights, vectorize_features)

# Method constants that are not config keys; a config file that sets one is rejected.
RETIRED_KEYS = ["ami_max_lag", "fnn_m_max", "knot_mode", "knot_quantile",
                "landscape_layers", "curve_bins"]

TINY = dict(n_subjects=3, segments_per_subject=2, n_channels=2)
ROOT = Path(__file__).resolve().parents[1]


def tiny_config(out_dir, **overrides):
    base = dict(out_dir=str(out_dir), window_sec=2.0, k=60, keep_n=50, q=5,
                folds=3, seed=1)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = tiny_config(out)
    stage_synth(cfg, **TINY)
    report = run_pipeline(cfg)
    return cfg, report


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfig:
    def test_load_and_override(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\nk = 120\nkeep_fraction = 0.95\ndescriptor = landscape\n")
        cfg = load_config(p)
        assert cfg.k == 120 and cfg.keep_fraction == 0.95
        assert cfg.descriptor == "landscape"

    @pytest.mark.parametrize("key", ["qq", *RETIRED_KEYS])
    def test_unknown_key_rejected(self, tmp_path, key):
        p = tmp_path / "cfg.txt"
        p.write_text(f"{key} = 3\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_config(p)

    @pytest.mark.parametrize("line, message", [
        ("k = abc", "config line 2: k expects an int, got 'abc'"),
        ("keep_fraction = 1,5", "config line 2: keep_fraction expects a float, got '1,5'"),
        ("grid_search = maybe", "config line 2: grid_search expects a bool, got 'maybe'"),
    ])
    def test_bad_value_names_line_and_key(self, tmp_path, line, message):
        p = tmp_path / "cfg.txt"
        p.write_text(f"# comment\n{line}\n")
        with pytest.raises(ValueError) as err:
            load_config(p)
        assert str(err.value) == message

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            validate_config(PipelineConfig(band_low=60.0, band_high=50.0))
        with pytest.raises(ValueError):
            validate_config(PipelineConfig(descriptor="hist"))
        with pytest.raises(ValueError):
            validate_config(PipelineConfig(keep_fraction=0.0))

    def test_bad_bandwidth_fails_before_any_stage(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", bandwidth="bogus")
        for stage in (stage_synth, run_pipeline):
            with pytest.raises(ValueError, match="bandwidth"):
                stage(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("C", 0.0), ("gamma", -1.0), ("pi_rows", 0), ("pi_cols", 0), ("pi_sigma", -1.0),
        ("weight_plateau", -1.0), ("weight_junction", -1.0), ("weight_ramp_start", -1.0),
        ("weight_ramp_end", -1.0), ("weight_ramp_end", 2.0), ("iters", 0), ("window_sec", 0.0),
        ("filter_order", 3), ("jobs", 0), ("seed", -1), ("ami_bins", 1), ("fnn_rtol", 0.0),
        ("fnn_rtol", -1.0), ("fnn_atol", 0.0), ("fnn_atol", -1.0),
    ])
    def test_bad_size_fails_before_any_stage(self, tmp_path, field, value):
        # ramp start 2 is valid on its own; it makes weight_ramp_end = 2 out of order
        cfg = tiny_config(tmp_path / "out", **{"weight_ramp_start": 2.0, field: value})
        for stage in (stage_synth, run_pipeline):
            with pytest.raises(ValueError, match=field):
                stage(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", [f.name for f in fields(PipelineConfig)
                                       if f.type == "float"])
    def test_non_finite_value_fails_before_any_stage(self, tmp_path, field, value):
        cfg = tiny_config(tmp_path / "out", **{field: value})
        for stage in (stage_synth, run_pipeline):
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                stage(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, entry", [("identity:nan", "nan"), ("identity:inf", "inf"),
                                             ("manual:1,0,0,-inf", "-inf")])
    def test_non_finite_bandwidth_fails_before_any_stage(self, tmp_path, spec, entry):
        cfg = tiny_config(tmp_path / "out", bandwidth=spec)
        for stage in (stage_synth, run_pipeline):
            with pytest.raises(ValueError) as err:
                stage(cfg)
            assert str(err.value) == f"bandwidth {spec!r}: {entry!r} must be finite"
        assert not (tmp_path / "out").exists()

    def test_overflowing_window_fails_before_any_stage(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", rate=1e200, window_sec=1e200)
        for stage in (stage_synth, run_pipeline):
            with pytest.raises(ValueError, match=r"^window_sec \* rate must be finite$"):
                stage(cfg)
        assert not (tmp_path / "out").exists()

    def test_window_samples(self):
        assert PipelineConfig(rate=128.0, window_sec=4.0).window_samples() == 512


class TestStages:
    def test_artifacts_exist(self, tiny_run):
        cfg, report = tiny_run
        out = Path(cfg.out_dir)
        assert (out / "manifest.json").exists()
        assert not (out / "labels.csv").exists()
        assert (out / "params.json").exists()
        assert not (out / "clouds").exists()
        assert len(list((out / "joint").glob("*.csv"))) == 12
        assert len(list((out / "diagrams").glob("*.csv"))) == 12
        assert len(list((out / "subject_diagrams").glob("*.csv"))) == 6
        assert not (out / "images").exists()
        assert (out / "features.csv").exists()
        assert (out / "report.json").exists()
        assert 0.0 <= report.acc <= 1.0

    def test_features_shape(self, tiny_run):
        cfg, _ = tiny_run
        lines = (Path(cfg.out_dir) / "features.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + 6 subjects
        assert len(lines[1].split(",")) == 2 + cfg.pi_rows * cfg.pi_cols

    def test_resume_is_byte_identical(self, tiny_run):
        cfg, _ = tiny_run
        out = Path(cfg.out_dir)
        targets = [next(iter((out / "joint").glob("*.csv"))),
                   next(iter((out / "diagrams").glob("*.csv"))),
                   next(iter((out / "subject_diagrams").glob("*.csv"))),
                   out / "features.csv"]
        before = [digest(t) for t in targets]
        for t in targets:
            t.unlink()
        stage_denoise(cfg)
        stage_vectorize(cfg)
        assert [digest(t) for t in targets] == before

    def test_rerun_classify_matches(self, tiny_run):
        cfg, report = tiny_run
        again = stage_classify(cfg)
        assert again.to_json() == report.to_json()

    def test_full_resume_cuts_no_recording(self, tiny_run, tmp_path, monkeypatch):
        cfg, report = tiny_run

        def refuse(*args):
            raise AssertionError("a full resume cut a recording")

        monkeypatch.setattr("topofeat.pipeline.cut_recording", refuse)
        shutil.copytree(cfg.out_dir, tmp_path / "copy")
        again = run_pipeline(replace(cfg, out_dir=str(tmp_path / "copy")))
        assert again.to_json() == report.to_json()

    def test_full_resume_computes_no_diagram_or_fit(self, tiny_run, tmp_path, monkeypatch):
        # classify refits its SVMs in the library; no diagram or k-PDTM is computed again
        cfg, report = tiny_run
        lib, calls = _kernels._library(), []
        for name in ("rips_pairs", "mass_stats", "kpdtm_fit"):
            kernel = getattr(lib, name)
            monkeypatch.setattr(lib, name, lambda *args, name=name, kernel=kernel:
                                calls.append(name) or kernel(*args))
        shutil.copytree(cfg.out_dir, tmp_path / "copy")
        again = run_pipeline(replace(cfg, out_dir=str(tmp_path / "copy")))
        assert again.to_json() == report.to_json()
        assert calls == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_denoise_redoes_only_recordings_missing_an_output(self, tiny_run, tmp_path,
                                                              monkeypatch, jobs):
        cfg = replace(tiny_run[0], out_dir=str(tmp_path / "out"), jobs=jobs)
        shutil.copytree(tiny_run[0].out_dir, cfg.out_dir)
        out = Path(cfg.out_dir)

        def outputs(read):
            return {p.relative_to(out): read(p) for stage_dir in ("joint", "diagrams",
                                                                  "subject_diagrams")
                    for p in (out / stage_dir).iterdir()}

        fresh = outputs(Path.read_bytes)
        before = outputs(lambda p: p.stat().st_mtime_ns)
        (out / "diagrams" / "a000_0001.csv").unlink()
        (out / "joint" / "b001_0000.csv").unlink()

        def refuse(*args):
            raise AssertionError("a recording job read a joint cloud back")

        monkeypatch.setattr(PointCloud, "from_csv", refuse)
        stage_denoise(cfg)
        after = outputs(lambda p: p.stat().st_mtime_ns)
        assert after.keys() == before.keys()
        assert {p for p in after if after[p] != before[p]} == {
            p for p in before if p.name.startswith(("a000", "b001"))}
        assert outputs(Path.read_bytes) == fresh

    def test_denoise_rebuilds_deleted_subject_diagrams_from_the_cut(self, tiny_run, tmp_path,
                                                                    monkeypatch):
        cfg = replace(tiny_run[0], out_dir=str(tmp_path / "out"))
        shutil.copytree(tiny_run[0].out_dir, cfg.out_dir)
        out = Path(cfg.out_dir)

        def outputs():
            return {p.relative_to(out): p.read_bytes() for stage_dir in ("joint", "diagrams",
                                                                         "subject_diagrams")
                    for p in (out / stage_dir).iterdir()}

        fresh = outputs()
        shutil.rmtree(out / "subject_diagrams")

        def refuse(*args):
            raise AssertionError("rebuilding a subject diagram read a joint cloud back")

        monkeypatch.setattr(PointCloud, "from_csv", refuse)
        stage_denoise(cfg)
        assert outputs() == fresh

    def test_density_dump_from_scratch_equals_the_resumed_dump(self, tiny_run, tmp_path):
        # both redo every recording from the cut, so both pool the same bars in the same order
        finished = replace(tiny_run[0], out_dir=str(tmp_path / "finished"))
        shutil.copytree(tiny_run[0].out_dir, finished.out_dir)
        stage_denoise(finished, emit_density=tmp_path / "resumed.csv")
        fresh = replace(tiny_run[0], out_dir=str(tmp_path / "fresh"))
        stage_synth(fresh, **TINY)
        stage_embed(fresh)
        stage_denoise(fresh, emit_density=tmp_path / "fresh.csv")
        resumed = (tmp_path / "resumed.csv").read_bytes()
        assert len(resumed.splitlines()) > 1
        assert (tmp_path / "fresh.csv").read_bytes() == resumed

    @pytest.mark.parametrize("size, value", [("n_subjects", 0), ("n_subjects", -2),
                                             ("segments_per_subject", 0), ("n_channels", 0)])
    def test_synth_checks_sizes_before_it_removes_the_cohort(self, tiny_run, tmp_path, size,
                                                             value):
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        kept = [out / "manifest.json", *sorted((out / "input").iterdir())]
        before = {p: p.read_bytes() for p in kept}
        with pytest.raises(ValueError, match=f"^{size} must be >= 1$"):
            stage_synth(replace(tiny_run[0], out_dir=str(out)), **{**TINY, size: value})
        assert sorted((out / "input").iterdir()) == kept[1:]
        assert {p: p.read_bytes() for p in kept} == before

    def test_vectorize_recomputes_under_a_new_descriptor(self, tiny_run, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        outputs = [out / "features.csv", out / "vectorize_meta.json"]
        before = {p: p.read_bytes() for p in outputs}
        stage_vectorize(replace(tiny_run[0], out_dir=str(out), descriptor="landscape"))
        assert load_features_csv(out / "features.csv").features.shape == (6, 500)
        assert json.loads((out / "vectorize_meta.json").read_text())["descriptor"] == "landscape"
        stage_vectorize(replace(tiny_run[0], out_dir=str(out)))
        assert {p: p.read_bytes() for p in outputs} == before

    @pytest.mark.parametrize("victim", ["features.csv", "vectorize_meta.json"])
    def test_vectorize_restores_a_deleted_output(self, tiny_run, tmp_path, victim):
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        outputs = [out / "features.csv", out / "vectorize_meta.json"]
        before = {p: p.read_bytes() for p in outputs}
        (out / victim).unlink()
        stage_vectorize(replace(tiny_run[0], out_dir=str(out)))
        assert {p: p.read_bytes() for p in outputs} == before

    def test_plot_image_is_the_features_row(self, tiny_run, tmp_path):
        out = Path(tiny_run[0].out_dir)
        grid = json.loads((out / "vectorize_meta.json").read_text())["grid"]
        rows = load_features_csv(out / "features.csv")
        assert grid == [tiny_run[0].pi_rows, tiny_run[0].pi_cols]
        assert len(rows.subject_ids) == 6
        for sid, row in zip(rows.subject_ids, rows.features):
            write_png_gray(row.reshape(grid), tmp_path / "row.png")
            assert main(["plot", "--artifact", str(out / "subject_diagrams" / f"{sid}.csv"),
                         "--type", "image", "--output", str(tmp_path / "plot.png")]) == 0
            assert (tmp_path / "plot.png").read_bytes() == (tmp_path / "row.png").read_bytes()

    def test_plot_image_of_a_segment_diagram(self, tiny_run, tmp_path):
        diagram = Path(tiny_run[0].out_dir) / "diagrams" / "a000_0000.csv"
        assert main(["plot", "--artifact", str(diagram), "--type", "image",
                     "--output", str(tmp_path / "seg.png")]) == 0
        assert (tmp_path / "seg.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    def test_classify_features_into_a_new_out_dir(self, tiny_run, tmp_path):
        run = Path(tiny_run[0].out_dir)
        fresh = tmp_path / "fresh" / "out"
        assert main(["classify", "--features", str(run / "features.csv"), "--out", str(fresh),
                     "--folds", "3", "--seed", "1"]) == 0
        assert (fresh / "report.json").read_bytes() == (run / "report.json").read_bytes()

    def test_density_dump_without_points_is_its_header(self, tiny_run, tmp_path):
        # three points per joint cloud close no loop, so no diagram has an H1 bar
        cfg = replace(tiny_run[0], out_dir=str(tmp_path / "out"), keep_n=3)
        shutil.copytree(tiny_run[0].out_dir, cfg.out_dir)
        stage_denoise(cfg, emit_density=tmp_path / "density.csv")
        assert all(not PersistenceDiagram.from_csv(p).bars(1).size
                   for p in (Path(cfg.out_dir) / "diagrams").iterdir())
        assert (tmp_path / "density.csv").read_text() == "subject_id,birth,death,density\n"

    def test_synth_again_replaces_the_cohort(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        manifest = json.loads(stage_synth(cfg, **{**TINY, "n_subjects": 1}).read_text())
        assert sorted(p.name for p in (tmp_path / "out" / "input").iterdir()) == [
            "a000.csv", "b000.csv", "labels.csv"]
        assert manifest["recordings"].keys() == {"a000", "b000"}

    def test_layout_matches_readme(self, tiny_run):
        cfg, _ = tiny_run
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Artifact layout\n\n```\n", 1)[1].split("```", 1)[0]
        listed = set(block.split()) - {"out/"}
        out = Path(cfg.out_dir)
        paths = [p.relative_to(out) for p in out.rglob("*") if p.is_file()]
        assert {p.parts[0] + "/" if len(p.parts) > 1 else p.name for p in paths} == listed
        assert not list(out.rglob("*_seg*.csv"))

    def test_denoise_cuts_with_the_ingest_band(self, tiny_run, tmp_path):
        cfg, _ = tiny_run
        joints = {}
        for name, ingest_band, denoise_band in [("kept", (0.5, 50.0), (2.0, 20.0)),
                                                ("moved", (2.0, 20.0), (2.0, 20.0))]:
            sub = replace(cfg, out_dir=str(tmp_path / name))
            stage_synth(replace(sub, band_low=ingest_band[0], band_high=ingest_band[1]), **TINY)
            stage_embed(sub)
            stage_denoise(replace(sub, band_low=denoise_band[0], band_high=denoise_band[1]))
            joints[name] = {p.name: p.read_bytes() for p in (tmp_path / name / "joint").iterdir()}
        expected = {p.name: p.read_bytes() for p in (Path(cfg.out_dir) / "joint").iterdir()}
        assert joints["kept"] == expected
        assert joints["moved"].keys() == expected.keys() and joints["moved"] != expected


class TestStageErrors:
    def test_ramp_end_below_auto_ramp_start_names_vectorize(self, tiny_run):
        cfg, _ = tiny_run
        with pytest.raises(StageError, match="weight_ramp_end 1e-09 must exceed") as err:
            vectorize_features(*load_subject_diagrams(cfg), replace(cfg, weight_ramp_end=1e-9))
        assert err.value.stage == "vectorize"

    def test_non_finite_feature_row_names_vectorize_and_writes_nothing(self, tiny_run, tmp_path,
                                                                       monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        cfg = replace(tiny_run[0], out_dir=str(out))
        for name in ("features.csv", "vectorize_meta.json"):
            (out / name).unlink()
        monkeypatch.setattr(pipeline, "persistence_image",
                            lambda bp, grid, *args: np.full(grid, np.nan))
        with pytest.raises(StageError, match="features contain non-finite values") as err:
            stage_vectorize(cfg)
        assert err.value.stage == "vectorize"
        assert err.value.file == "a000.csv"
        assert not (out / "features.csv").exists()
        assert not (out / "vectorize_meta.json").exists()

    def test_keep_n_too_large_names_denoise(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", keep_n=1000)
        stage_synth(cfg, **TINY)
        stage_embed(cfg)
        with pytest.raises(StageError, match="denoise") as err:
            stage_denoise(cfg)
        assert err.value.stage == "denoise"

    def test_missing_manifest_names_ingest(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        Path(cfg.out_dir).mkdir()
        with pytest.raises(StageError, match="ingest"):
            stage_embed(cfg)

    def test_missing_input_dir(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", input_dir=str(tmp_path / "missing"))
        with pytest.raises(StageError, match="ingest"):
            stage_ingest(cfg)

    def test_skipped_stage_detected(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        with pytest.raises(StageError, match="embed"):
            stage_denoise(cfg)

    def test_missing_params_names_file(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        with pytest.raises(StageError, match="params.json missing") as err:
            stage_denoise(cfg)
        assert err.value.stage == "denoise"
        assert err.value.file == str(Path(cfg.out_dir) / "params.json")

    @pytest.mark.parametrize("damage, message", [("missing", "No such file"),
                                                 ("edited", "changed since ingest"),
                                                 ("dropped_channel", "changed since ingest")],
                             ids=["missing", "edited", "dropped_channel"])
    def test_damaged_recording_names_file(self, tmp_path, damage, message):
        # the sha is checked before the bytes are parsed, so a dropped channel goes unread
        cfg = tiny_config(tmp_path / "out", channels="ch1,ch0")
        stage_synth(cfg, **TINY)
        stage_embed(cfg)
        victim = Path(cfg.out_dir) / "input" / "a000.csv"
        if damage == "missing":
            victim.unlink()
        elif damage == "dropped_channel":
            victim.write_text("".join(ln.split(",")[0] + "\n"
                                      for ln in victim.read_text().splitlines()))
        else:
            header, first, rest = victim.read_text().split("\n", 2)
            zeros = ",".join("0.0" for _ in first.split(","))
            victim.write_text(f"{header}\n{zeros}\n{rest}")
        with pytest.raises(StageError, match=message) as err:
            stage_denoise(cfg)
        assert err.value.stage == "denoise"
        assert err.value.file == str(victim)
        assert not list((Path(cfg.out_dir) / "joint").glob("*.csv"))
        assert not list((Path(cfg.out_dir) / "diagrams").glob("*.csv"))

    def test_missing_compiler_names_the_recording(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        stage_embed(cfg)
        missing = str(tmp_path / "no-such-gcc")
        monkeypatch.setattr(_kernels, "_CC", missing)
        monkeypatch.setattr(_kernels, "_CACHE", tmp_path / "cache")
        monkeypatch.setattr(_kernels, "_LIB", None)
        with pytest.raises(StageError, match="no-such-gcc") as err:
            stage_denoise(cfg)
        assert err.value.stage == "denoise"
        assert err.value.file == str(Path(cfg.out_dir) / "input" / "a000.csv")
        assert missing in err.value.message

    # artifact under out/, the reused outputs that would keep a stage from reading
    # it, the stage that reads it, and the stage an error names
    DAMAGED = {
        "recording": ("input/a000.csv", [], "ingest", "ingest"),
        "subject_diagram": ("subject_diagrams/a000.csv", ["features.csv"], "vectorize",
                            "vectorize"),
        "subject_diagram_nan": ("subject_diagrams/a000.csv", ["features.csv"], "vectorize",
                                "vectorize"),
        "subject_diagram_sweep": ("subject_diagrams/a000.csv", [], "sweep", "vectorize"),
        "features": ("features.csv", [], "classify", "classify"),
        "manifest": ("manifest.json", [], "denoise", "ingest"),
        "params_embed": ("params.json", [], "embed", "embed"),
        "params_denoise": ("params.json", [], "denoise", "denoise"),
    }
    STAGES = {"ingest": stage_ingest, "embed": stage_embed, "denoise": stage_denoise,
              "vectorize": stage_vectorize, "classify": stage_classify,
              "sweep": lambda cfg: sweep_weights(cfg, [0.0], [3.0])}

    @pytest.mark.parametrize("artifact", list(DAMAGED))
    def test_damaged_artifact_names_stage_file_and_line(self, tiny_run, tmp_path, artifact):
        name, reused, stage, named = self.DAMAGED[artifact]
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        cfg = replace(tiny_run[0], out_dir=str(out), input_dir=str(out / "input"))
        for reuse in reused:
            (out / reuse).unlink()
        victim = out / name
        lines = victim.read_text().splitlines()
        if victim.suffix == ".json":
            victim.write_text("{not json\n")
            expected = "Expecting property name"
        elif artifact.endswith("_nan"):  # the first row's birth becomes NaN
            death = lines[1].rsplit(",", 1)[1]
            lines[1] = f"1,nan,{death}"
            victim.write_text("\n".join(lines) + "\n")
            expected = f"(1, nan, {float(death)}): birth must be finite"
        else:  # the first row loses its last cell
            lines[1] = lines[1].rsplit(",", 1)[0]
            victim.write_text("\n".join(lines) + "\n")
            expected = "ragged rows: line 2"
        with pytest.raises(StageError) as err:
            self.STAGES[stage](cfg)
        assert err.value.stage == named
        assert err.value.file == str(victim)
        assert expected in err.value.message

    @pytest.mark.parametrize("damage", ["ragged", "nan"])
    def test_damaged_segment_diagram_is_redone(self, tiny_run, tmp_path, damage):
        # no stage reads a segment diagram; a recording missing its subject diagram
        # is redone from the cut, which rewrites the damaged file
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        victim = out / "diagrams" / "a000_0000.csv"
        fresh = victim.read_bytes()
        lines = victim.read_text().splitlines()
        death = lines[1].rsplit(",", 1)[1]
        lines[1] = lines[1].rsplit(",", 1)[0] if damage == "ragged" else f"1,nan,{death}"
        victim.write_text("\n".join(lines) + "\n")
        (out / "subject_diagrams" / "a000.csv").unlink()
        stage_denoise(replace(tiny_run[0], out_dir=str(out)))
        assert victim.read_bytes() == fresh
        assert (out / "subject_diagrams" / "a000.csv").read_bytes() == \
            (Path(tiny_run[0].out_dir) / "subject_diagrams" / "a000.csv").read_bytes()


def first_cut(cfg, sid):
    """The first window of a recording under the input, band-passed as a denoise job does."""
    rec = load_recording(Path(cfg.out_dir) / "input" / f"{sid}.csv", rate=cfg.rate)
    rec = bandpass_filter(rec, cfg.band_low, cfg.band_high, cfg.filter_order)
    return segment(rec, cfg.window_samples())[0].data


class TestEmbedStage:
    def test_auto_params_match_the_estimator(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", auto_params=True, ami_bins=12, fnn_rtol=8.0,
                          fnn_atol=1.5)
        stage_synth(cfg, **TINY)
        params = stage_embed(cfg)
        expected = estimate_embedding_params(list(first_cut(cfg, "a000")), bins=12, rtol=8.0,
                                             atol=1.5)
        assert params == expected
        assert json.loads((Path(cfg.out_dir) / "params.json").read_text()) == {
            "m": expected.dim, "tau": expected.delay}


def ingest_input(tmp_path, rng, labels_text):
    """Two 100-sample recordings s0 and s1 plus the given labels.csv; returns the config."""
    src = tmp_path / "src"
    src.mkdir()
    for sid in ("s0", "s1"):
        data = rng.normal(size=(100, 2))
        lines = ["c0,c1"] + [f"{float(a)!r},{float(b)!r}" for a, b in data]
        (src / f"{sid}.csv").write_text("\n".join(lines) + "\n")
    (src / "labels.csv").write_text(labels_text)
    return tiny_config(tmp_path / "out", input_dir=str(src), rate=25.0,
                       window_sec=2.0, band_low=0.5, band_high=10.0)


def edited_after_first_read(monkeypatch, path, edited):
    """Patch every read of ``path``: the first returns the file, each later one ``edited``.

    Returns the list of reads made, ``"bytes"`` or ``"text"`` each.
    """
    reads = []
    read_bytes, read_text = Path.read_bytes, Path.read_text

    def fake_bytes(self):
        if self != path:
            return read_bytes(self)
        reads.append("bytes")
        return read_bytes(self) if len(reads) == 1 else edited.encode()

    def fake_text(self, *args, **kwargs):
        if self != path:
            return read_text(self, *args, **kwargs)
        reads.append("text")
        return read_text(self, *args, **kwargs) if len(reads) == 1 else edited

    monkeypatch.setattr(Path, "read_bytes", fake_bytes)
    monkeypatch.setattr(Path, "read_text", fake_text)
    return reads


def zeroed_first_row(path):
    header, first, rest = path.read_text().split("\n", 2)
    return f"{header}\n{','.join('0.0' for _ in first.split(','))}\n{rest}"


def segment_bytes(segments):
    return [(s.channels, s.rate, s.data.tobytes()) for s in segments]


class TestReadOnce:
    """A recording is read once per cut or ingest: the bytes hashed are the bytes parsed."""

    def test_cut_parses_the_bytes_it_hashed(self, tmp_path, rng, monkeypatch):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        path = tmp_path / "src" / "s0.csv"
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        expected = segment_bytes(cut_recording(path, cfg, sha))
        reads = edited_after_first_read(monkeypatch, path, zeroed_first_row(path))
        assert segment_bytes(cut_recording(path, cfg, sha)) == expected
        assert reads == ["bytes"]

    def test_ingest_hashes_the_bytes_it_parsed(self, tmp_path, rng, monkeypatch):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        path = tmp_path / "src" / "s0.csv"
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        reads = edited_after_first_read(monkeypatch, path, zeroed_first_row(path))
        manifest = json.loads(stage_ingest(cfg).read_text())
        assert manifest["recordings"]["s0"]["sha256"] == sha
        assert reads == ["bytes"]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cut_reads_line_endings_as_read_text_does(self, tmp_path, rng, newline):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        path = tmp_path / "src" / "s0.csv"
        expected = segment_bytes(cut_recording(path, cfg))
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        assert segment_bytes(cut_recording(path, cfg)) == expected
        assert load_recording(path, cfg.rate).data.shape == (2, 100)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_cut_selects_channels_then_filters_with_the_same_bits(self, tmp_path, rng, order):
        path = tmp_path / "s0.csv"
        names = ["c0", "c1", "c2", "c3"]
        save_recording(RawRecording(names, rng.normal(size=(4, 300)), 64.0), path)
        cfg = tiny_config(tmp_path / "out", rate=64.0, window_sec=1.0, band_low=0.5,
                          band_high=20.0, filter_order=order, channels="c3,c0,c2")
        every = bandpass_filter(load_recording(path, cfg.rate), cfg.band_low, cfg.band_high,
                                order)
        expected = segment(select_channels(every, ["c3", "c0", "c2"]), cfg.window_samples())
        assert segment_bytes(cut_recording(path, cfg)) == segment_bytes(expected)


class TestIngestStage:
    def test_ingest_roundtrip(self, tmp_path, rng):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        manifest = json.loads(stage_ingest(cfg).read_text())
        src = tmp_path / "src"
        assert manifest == {
            "input_dir": str(src.resolve()),
            "settings": {"rate": 25.0, "band_low": 0.5, "band_high": 10.0, "filter_order": 4,
                         "apply_bandpass": True, "channels": "", "window_sec": 2.0},
            "recordings": {sid: {"label": label, "segments": 2,  # two 50-sample windows
                                 "sha256": digest(src / f"{sid}.csv")}
                           for sid, label in (("s0", 0), ("s1", 1))}}
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("labels_text, message", [
        ("s0,0\ns1,1\n", "header"),
        ("subject_id,label\ns0,0\ns1,2\n", "line 3"),
        ("subject_id,label\ns0,0\ns1,1\ns0,1\n", "duplicate subject 's0'"),
        ("subject_id,label\ns0,0\n", r"no label for recording\(s\) \['s1'\]"),
        ("subject_id,label\ns0,0\ns1,1\ns9,1\n",
         r"no recording for labelled subject\(s\) \['s9'\]"),
    ], ids=["no_header", "label_2", "duplicate_id", "unlabelled_recording",
            "unrecorded_label"])
    def test_bad_labels_fail_before_any_segment(self, tmp_path, rng, labels_text, message):
        cfg = ingest_input(tmp_path, rng, labels_text)
        with pytest.raises(StageError, match=message) as err:
            stage_ingest(cfg)
        assert err.value.stage == "ingest"
        assert err.value.file == str(tmp_path / "src" / "labels.csv")
        assert not (tmp_path / "out").exists()

    def test_bad_cell_in_second_recording_writes_nothing(self, tmp_path, rng):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        victim = tmp_path / "src" / "s1.csv"
        header, first, rest = victim.read_text().split("\n", 2)
        victim.write_text(f"{header}\nx,{first.split(',')[1]}\n{rest}")
        with pytest.raises(StageError, match="non-numeric cell at line 2") as err:
            stage_ingest(cfg)
        assert err.value.stage == "ingest"
        assert err.value.file == str(victim)
        assert not (tmp_path / "out").exists()

    def test_recording_shorter_than_a_window_writes_nothing(self, tmp_path, rng):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        victim = tmp_path / "src" / "s1.csv"
        victim.write_text("\n".join(victim.read_text().splitlines()[:50]) + "\n")  # 49 samples
        with pytest.raises(StageError, match="recording 's1' is shorter than one window "
                                             "of 50 samples") as err:
            stage_ingest(cfg)
        assert err.value.stage == "ingest"
        assert err.value.file == str(victim)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage, message", [
        ("non_finite", "non-finite values"),
        ("unknown_channel", r"unknown channel name\(s\): \['c9'\]"),
    ])
    def test_bad_recording_fails_at_ingest(self, tmp_path, rng, damage, message):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        victim = tmp_path / "src" / "s0.csv"
        if damage == "non_finite":
            header, first, rest = victim.read_text().split("\n", 2)
            victim.write_text(f"{header}\nnan,{first.split(',')[1]}\n{rest}")
        else:
            cfg = replace(cfg, channels="c1,c9")
        with pytest.raises(StageError, match=message) as err:
            stage_ingest(cfg)
        assert err.value.stage == "ingest"
        assert err.value.file == str(victim)
        assert not (tmp_path / "out").exists()

    def test_ingest_counts_windows_without_cutting(self, tmp_path, rng, monkeypatch):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        cfg = replace(cfg, channels="c1")
        src = tmp_path / "src"
        short = src / "s1.csv"
        short.write_text("\n".join(short.read_text().splitlines()[:81]) + "\n")  # 80 samples

        def refuse(*args, **kwargs):
            raise AssertionError("ingest cut a recording")

        with monkeypatch.context() as mp:
            mp.setattr("topofeat.pipeline.bandpass_filter", refuse)
            mp.setattr("topofeat.pipeline.segment", refuse)
            manifest = json.loads(stage_ingest(cfg).read_text())
        assert {sid: (r["segments"], r["sha256"]) for sid, r in manifest["recordings"].items()} == {
            sid: (len(cut_recording(src / f"{sid}.csv", cfg)), digest(src / f"{sid}.csv"))
            for sid in ("s0", "s1")}
        assert [r["segments"] for r in manifest["recordings"].values()] == [2, 1]

    def test_recording_too_short_to_filter_fails_in_denoise(self, tmp_path, rng):
        # 20 samples hold one 16-sample window, but an order-8 filter pads by 24
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        cfg = replace(cfg, rate=32.0, window_sec=0.5, filter_order=8)
        victim = tmp_path / "src" / "s0.csv"
        victim.write_text("\n".join(victim.read_text().splitlines()[:21]) + "\n")
        manifest = json.loads(stage_ingest(cfg).read_text())
        assert manifest["recordings"]["s0"]["segments"] == 1
        stage_embed(cfg)
        with pytest.raises(StageError, match="must be greater than padlen, which is 24") as err:
            stage_denoise(cfg)
        assert err.value.stage == "denoise"
        assert err.value.file == str(victim)
        assert not list((tmp_path / "out" / "joint").glob("s0_*.csv"))

    def test_band_edge_at_nyquist_fails_before_any_write(self, tmp_path, rng):
        cfg = ingest_input(tmp_path, rng, "subject_id,label\ns0,0\ns1,1\n")
        with pytest.raises(ValueError, match=r"band_high must be below rate / 2 = 12.5 Hz"):
            stage_ingest(replace(cfg, band_high=12.5))
        assert not (tmp_path / "out").exists()
        stage_ingest(replace(cfg, band_high=12.5, apply_bandpass=False))
        assert (tmp_path / "out" / "manifest.json").exists()


def old_layout(manifest, kind):
    """The cohort of ``manifest`` as an older ingest recorded it: with a flat
    segment list beside bare sha256 strings, or with the bare strings alone."""
    old = {"input_dir": manifest["input_dir"], "settings": manifest["settings"],
           "recordings": {sid: r["sha256"] for sid, r in manifest["recordings"].items()}}
    if kind == "flat_segments":
        old["segments"] = [{"source_id": sid, "index": i, "window": 256, "channels": ["x0", "x1"]}
                           for sid, r in manifest["recordings"].items()
                           for i in range(r["segments"])]
    return old


class TestManifest:
    @pytest.mark.parametrize("kind", ["flat_segments", "bare_sha256"])
    # stage_filter is the name a timing harness wraps; it is stage_denoise
    @pytest.mark.parametrize("stage", ["stage_embed", "stage_denoise", "stage_filter",
                                       "load_subject_diagrams", "run_pipeline"])
    def test_old_layout_asks_for_ingest(self, tiny_run, tmp_path, stage, kind):
        cfg = replace(tiny_run[0], out_dir=str(tmp_path / "out"))
        shutil.copytree(tiny_run[0].out_dir, cfg.out_dir)
        path = Path(cfg.out_dir) / "manifest.json"
        path.write_text(json.dumps(old_layout(json.loads(path.read_text()), kind)))
        with pytest.raises(StageError, match="manifest.json is in an older layout; "
                                             "run the ingest stage again") as err:
            getattr(pipeline, stage)(cfg)
        assert err.value.stage == "ingest"
        assert err.value.file == str(path)

    def test_recordings_drive_every_stage(self, tiny_run):
        cfg, _ = tiny_run
        out = Path(cfg.out_dir)
        recordings = json.loads((out / "manifest.json").read_text())["recordings"]
        assert {sid: (r["label"], r["segments"]) for sid, r in recordings.items()} == {
            **{f"a{i:03d}": (1, 2) for i in range(3)}, **{f"b{i:03d}": (0, 2) for i in range(3)}}
        assert sorted(p.name for p in (out / "diagrams").iterdir()) == [
            f"{sid}_{i:04d}.csv" for sid in sorted(recordings) for i in range(2)]
        diagrams, labels = load_subject_diagrams(cfg)
        assert list(diagrams) == sorted(recordings)
        assert labels == {sid: r["label"] for sid, r in recordings.items()}


class TestJobs:
    def test_jobs_do_not_change_bytes(self, tmp_path):
        outputs = []
        for jobs in (1, 2):
            cfg = tiny_config(tmp_path / f"jobs{jobs}", jobs=jobs)
            stage_synth(cfg, **TINY)
            run_pipeline(cfg)
            out = Path(cfg.out_dir)
            stage_denoise(cfg, emit_density=out / "density.csv")
            files = [p for stage_dir in ("joint", "diagrams", "subject_diagrams")
                     for p in sorted(out.glob(f"{stage_dir}/*.csv"))]
            outputs.append({str(p.relative_to(out)): p.read_bytes()
                            for p in files + [out / "features.csv", out / "density.csv"]})
        assert len(outputs[0]) == 2 * 12 + 6 + 2
        assert outputs[0] == outputs[1]

    @staticmethod
    def record_pools(monkeypatch) -> list[int]:
        """Run pool jobs in-process; the returned list gets the size of each pool asked for."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

            def submit(self, fn, job):
                future = Future()
                future.set_result(fn(job))
                return future

        monkeypatch.setattr("topofeat.pipeline.ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_has_at_most_one_worker_per_job(self, tmp_path, monkeypatch):
        sizes = self.record_pools(monkeypatch)
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        stage_embed(cfg)
        stage_denoise(cfg)
        assert sizes == []  # jobs=1 runs in-process
        victim = next(iter((Path(cfg.out_dir) / "diagrams").glob("*.csv")))
        expected = victim.read_bytes()
        victim.unlink()
        stage_denoise(replace(cfg, jobs=16))
        assert sizes == [1]
        assert victim.read_bytes() == expected

    def test_run_starts_one_pool(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "out", jobs=2)
        stage_synth(cfg, **TINY)
        sizes = self.record_pools(monkeypatch)
        run_pipeline(cfg)
        assert sizes == [2]

    def test_run_parses_no_joint_cloud(self, tmp_path, monkeypatch):
        reads = []
        parse = PointCloud.from_csv

        def counting(path):
            reads.append(path)
            return parse(path)

        monkeypatch.setattr(PointCloud, "from_csv", counting)
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        run_pipeline(cfg)
        assert len(list((tmp_path / "out" / "diagrams").glob("*.csv"))) == 12
        assert reads == []

    def test_run_parses_no_segment_diagram(self, tmp_path, monkeypatch):
        reads = []
        parse = PersistenceDiagram.from_csv

        def counting(path):
            reads.append(Path(path).parent.name)
            return parse(path)

        monkeypatch.setattr(PersistenceDiagram, "from_csv", counting)
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        run_pipeline(cfg)
        assert reads == ["subject_diagrams"] * 6


class TestSweep:
    def test_sweep_grid(self, tiny_run):
        cfg, _ = tiny_run
        grid = sweep_weights(cfg, [0.0, 1.0], [1.0, 3.0])
        assert len(grid) == 4
        assert {(g["plateau"], g["junction"]) for g in grid} == {(0, 1), (0, 3), (1, 1), (1, 3)}
        assert all(0.0 <= g["acc"] <= 1.0 for g in grid)

    def test_config_pair_reproduces_report(self, tiny_run):
        cfg, _ = tiny_run
        out = Path(cfg.out_dir)
        [row] = sweep_weights(cfg, [cfg.weight_plateau], [cfg.weight_junction])
        saved = json.loads((out / "report.json").read_text())
        assert {k: row[k] for k in ("acc", "se", "sp")} == {k: saved[k] for k in ("acc", "se", "sp")}
        assert not list(out.glob("sweep_*"))

    def test_non_finite_weight_names_the_key(self, tiny_run):
        with pytest.raises(ValueError, match="^weight_plateau must be finite$"):
            sweep_weights(tiny_run[0], [math.nan], [3.0])

    def test_zero_plateau_beats_weighted_noise(self, tmp_path):
        # flooding low-persistence points with plateau weight drags the
        # images toward the (class-shared) noise bulk; zeroing them wins
        cfg = PipelineConfig(out_dir=str(tmp_path / "sweep"), seed=5, folds=4, jobs=2)
        stage_synth(cfg, n_subjects=8, segments_per_subject=4, n_channels=4)
        run_pipeline(cfg)
        grid = {g["plateau"]: g["acc"] for g in sweep_weights(cfg, [0.0, 1.0], [3.0])}
        assert grid[0.0] >= grid[1.0]


class TestAtomicWrites:
    @staticmethod
    def cut_off_after_first_line(monkeypatch, directory=None, name=None):
        """Make every text or bytes write (into ``directory``, and to a file whose
        name holds ``name``, if given) stop after its first line and fail."""
        for method in ("write_text", "write_bytes"):
            def cut_off(path, data, *args, write=getattr(Path, method), **kwargs):
                if (directory is not None and path.parent.name != directory
                        or name is not None and name not in path.name):
                    return write(path, data, *args, **kwargs)
                newline = "\n" if isinstance(data, str) else b"\n"
                write(path, data.split(newline, 1)[0] + newline, *args, **kwargs)
                raise OSError("no space left on device")

            monkeypatch.setattr(Path, method, cut_off)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "a.csv"
        for encode in (str, str.encode):  # a text write, then a bytes write
            write_atomic(target, encode("x\n1\n"))
            assert target.read_bytes() == b"x\n1\n"
            with monkeypatch.context() as mp:
                self.cut_off_after_first_line(mp)
                with pytest.raises(OSError):
                    write_atomic(target, encode("y\n2\n"))
            assert target.read_bytes() == b"x\n1\n"
            assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_diagram_cut_off_midway_is_not_resumed(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "out")
        stage_synth(cfg, **TINY)
        stage_embed(cfg)
        with monkeypatch.context() as mp:
            self.cut_off_after_first_line(mp, "diagrams")
            with pytest.raises(StageError, match="denoise"):
                stage_denoise(cfg)
        out = Path(cfg.out_dir)
        assert len(list((out / "joint").iterdir())) == 1  # written before its diagram
        assert not list((out / "diagrams").iterdir())  # no header-only diagram, no temp file
        stage_denoise(cfg)
        for joint in sorted((out / "joint").glob("*.csv")):
            expected = rips_diagram(PointCloud.from_csv(joint).points).to_csv_text()
            assert (out / "diagrams" / joint.name).read_text() == expected

    @pytest.mark.parametrize("command", ["sweep", "classify", "denoise", "experiment", "plot"])
    def test_cli_and_script_outputs_cut_off_midway_leave_no_file(self, tiny_run, tmp_path,
                                                                 monkeypatch, command):
        out = tmp_path / "out"
        shutil.copytree(tiny_run[0].out_dir, out)
        common = ["--out", str(out), "--seed", "1", "--folds", "3"]
        argv, target = {
            "sweep": (["sweep", *common, "--plateau-values", "0", "--junction-values", "3",
                       "--table", str(tmp_path / "table.json")], tmp_path / "table.json"),
            "classify": (["classify", *common, "--report", str(tmp_path / "copy.json")],
                         tmp_path / "copy.json"),
            "denoise": (["denoise", "--out", str(out), "--emit-density",
                         str(tmp_path / "density.csv")], tmp_path / "density.csv"),
            "experiment": (common, out / "experiment_summary.json"),
            "plot": (["plot", "--artifact", str(out / "diagrams" / "a000_0000.csv"), "--type",
                      "diagram", "--output", str(tmp_path / "d.svg")], tmp_path / "d.svg"),
        }[command]
        spec = importlib.util.spec_from_file_location(
            "run_synthetic_experiment", ROOT / "scripts" / "run_synthetic_experiment.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        run = script.main if command == "experiment" else main
        with monkeypatch.context() as mp:
            self.cut_off_after_first_line(mp, name=target.name)
            if command == "experiment":
                with pytest.raises(OSError, match="no space left on device"):
                    run(argv)
            else:
                assert run(argv) == 1
        assert not [p.name for p in target.parent.iterdir() if target.name in p.name]
        assert run(argv) == 0
        assert len(target.read_text().splitlines()) > 1
