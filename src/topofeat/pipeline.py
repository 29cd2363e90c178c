"""Staged end-to-end pipeline with on-disk artifacts and resumability.

Each stage reads its predecessor's files and writes its own.  Embed keeps an
existing params.json and denoise redoes only a recording that misses an
output; vectorize and classify always recompute.  So deleting any stage
directory and rerunning reproduces it byte-identically for a fixed seed.
Every artifact is written through ``write_atomic``, so a file that exists is
complete.  Stage failures surface as :class:`StageError` carrying the stage
name and offending file.

Layout under ``out_dir``:

    input/                         synthetic recordings + labels.csv (synth only)
    manifest.json                  input dir (relative to out_dir), cut settings; per
                                   recording its label, segment count and sha256
    params.json                    embedding parameters in effect
    joint/<sid>_<idx>.csv          denoised joint clouds
    diagrams/<sid>_<idx>.csv       per-segment persistence diagrams
    subject_diagrams/<sid>.csv     merged + density-filtered diagrams
    vectorize_meta.json            shared image grid / extent / sigma / weight knots
    features.csv                   one row per subject, final column = label
    report.json                    evaluation report

Recordings are the only signal on disk, and ``read_recording`` is their one
reader: it reads a file once, hashes the bytes, parses them and keeps the
``--channels``.  Ingest reads each recording so and counts its windows, but
cuts nothing; the cut (``cut_recording``) reads it so against the sha256 that
manifest.json records, then band-passes and segments.  Each denoise job takes
one recording from the cut through its joint clouds and diagrams, in memory,
to its merged and density-filtered subject diagram, and writes each of them on
the way, so nothing reads ``joint/`` or ``diagrams/`` back.  A feature table
is one :class:`LabeledDataset` from ``vectorize_features`` to features.csv and
to every evaluation; weight sweeps and descriptor comparisons re-vectorise the
subject diagrams in memory and write nothing.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classify import (EvalReport, LabeledDataset, kfold_cv, load_features_csv,
                       save_features_csv, tune_hyperparameters)
from .config import PipelineConfig, validate_config
from .denoise import MassParams, remap_multichannel
from .diagrams import BandwidthSpec, merge_diagrams, mkde_density, filter_by_density
from .embedding import EmbeddingParams, delay_embed, estimate_embedding_params
from .fileio import write_atomic, write_table
from .homology import PersistenceDiagram, rips_diagram
from .ingest import RawRecording, bandpass_filter, read_recording, save_recording, segment
from .synth import SynthSpec, gen_two_class_signals
from .vectorize import (WeightParams, betti_curve, birth_persistence_transform, default_extent,
                        entropy_summary, peak_split_knot, persistence_image, persistence_landscape)


class StageError(RuntimeError):
    """Failure tagged with the pipeline stage (and file) that caused it."""

    def __init__(self, stage: str, message: str, file=None):
        self.stage, self.message = stage, message
        self.file = str(file) if file is not None else None
        super().__init__(f"stage {stage}: {message}" + (f" [{self.file}]" if self.file else ""))


def _out(cfg: PipelineConfig) -> Path:
    return Path(cfg.out_dir)


def _manifest(cfg: PipelineConfig) -> dict:
    """The cohort as ingest recorded it, refusing any other layout:

        {"input_dir", "settings", "recordings": {sid: {"label", "segments", "sha256"}}}
    """
    path = _out(cfg) / "manifest.json"
    if not path.exists():
        raise StageError("ingest", "manifest.json missing; run the ingest or synth stage first", path)
    manifest = _staged("ingest", path)
    try:
        current = (manifest.keys() == {"input_dir", "settings", "recordings"}
                   and manifest["settings"].keys() == set(CUT_FIELDS)
                   and all(r.keys() == {"label", "segments", "sha256"}
                           for r in manifest["recordings"].values()))
    except AttributeError:  # a list or a string where this layout has a mapping
        current = False
    if not current:
        raise StageError("ingest", "manifest.json is in an older layout; run the ingest stage again",
                         path)
    return manifest


def _staged(stage: str, path: Path, call=lambda p: json.loads(p.read_text())):
    """``call(path)``, by default a JSON read, failing as a StageError naming stage and path."""
    try:
        return call(path)
    except Exception as exc:
        raise StageError(stage, str(exc), path) from exc


def _recording_path(out: Path, manifest: dict, sid: str) -> Path:
    """The absolute path of a recording of the manifest.  Its ``input_dir`` is
    relative to the real ``out_dir``, so the two can move together; an absolute
    one stays as it is.  A real path has no symlink for a ``..`` to cross."""
    return Path(os.path.normpath(out.resolve() / manifest["input_dir"] / f"{sid}.csv"))


def _embedding(path: Path) -> EmbeddingParams:
    d = json.loads(path.read_text())
    return EmbeddingParams(d["m"], d["tau"])


def _segment_name(sid: str, index: int) -> str:
    """File name of a segment's joint cloud and of its diagram."""
    return f"{sid}_{index:04d}.csv"


def _labels(path: Path) -> dict[str, int]:
    """Parse a labels file: a ``subject_id,label`` header, then unique ids labelled 0 or 1."""
    if not path.exists():
        raise StageError("ingest", "labels.csv missing", path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].replace(" ", "") != "subject_id,label":
        raise StageError("ingest", "labels.csv must start with the header 'subject_id,label'", path)
    out = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != 2 or not cells[0] or cells[1] not in ("0", "1"):
            raise StageError("ingest", f"line {lineno}: expected '<subject_id>,<0 or 1>', "
                                       f"got {ln!r}", path)
        if cells[0] in out:
            raise StageError("ingest", f"line {lineno}: duplicate subject {cells[0]!r}", path)
        out[cells[0]] = int(cells[1])
    return out


# The config fields a cut reads; ingest records them, and later cuts use the record.
CUT_FIELDS = ("rate", "band_low", "band_high", "filter_order", "apply_bandpass", "channels",
              "window_sec")


def cut_recording(path: Path, cfg: PipelineConfig,
                  sha256: str | None = None) -> list[RawRecording]:
    """Read one recording with its ``--channels`` (``read_recording``), band-pass
    and segment it; given ``sha256``, refuse a file edited since ingest.

    The band-pass filters each channel on its own, so selecting the channels
    first leaves every bit as filtering them all would.
    """
    rec, _ = read_recording(path, cfg.rate, cfg.channel_list(), sha256)
    if cfg.apply_bandpass:
        rec = bandpass_filter(rec, cfg.band_low, cfg.band_high, cfg.filter_order)
    return segment(rec, cfg.window_samples())


# --------------------------------------------------------------------- ingest

def stage_ingest(cfg: PipelineConfig) -> Path:
    """Check every recording of input_dir, then write manifest.json.

    input_dir holds one ``<subject_id>.csv`` per recording plus a
    ``labels.csv`` (subject_id,label) that labels exactly those subjects.
    Each recording is read once, hashed and parsed (``read_recording``), and
    must hold the ``--channels`` and at least one window; ingest counts the
    windows ``segment`` would cut, but cuts nothing.  Nothing is written
    until all have passed; the manifest then records, per recording, its
    label, segment count and sha256, and input_dir relative to out_dir, so
    the bytes do not depend on where the two directories live.
    """
    validate_config(cfg)
    src = Path(cfg.input_dir)
    if not src.is_dir():
        raise StageError("ingest", f"input directory not found: {src}")
    label_file = src / "labels.csv"
    labels = _labels(label_file)
    recordings = [p for p in sorted(src.glob("*.csv")) if p.name != "labels.csv"]
    unlabelled = [p.stem for p in recordings if p.stem not in labels]
    if unlabelled:
        raise StageError("ingest", f"no label for recording(s) {unlabelled}", label_file)
    unrecorded = sorted(set(labels) - {p.stem for p in recordings})
    if unrecorded:
        raise StageError("ingest", f"no recording for labelled subject(s) {unrecorded}",
                         label_file)
    if not recordings:
        raise StageError("ingest", "no recordings in the input directory", src)
    cohort = {}
    for rec_path in recordings:
        rec, sha256 = _staged("ingest", rec_path,
                              lambda p: read_recording(p, cfg.rate, cfg.channel_list()))
        segments = rec.n_samples // cfg.window_samples()
        if not segments:
            raise StageError("ingest", f"recording {rec_path.stem!r} is shorter than one window "
                                       f"of {cfg.window_samples()} samples", rec_path)
        cohort[rec_path.stem] = {"label": labels[rec_path.stem], "segments": segments,
                                 "sha256": sha256}
    out = _out(cfg)
    manifest = {"input_dir": os.path.relpath(src.resolve(), out.resolve()), "recordings": cohort,
                "settings": {name: getattr(cfg, name) for name in CUT_FIELDS}}
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out / "manifest.json"


# The periodic class of a synthetic cohort: its noise level and amplitude range.
SYNTH_NOISE = 0.3
SYNTH_AMPLITUDES = (0.55, 1.0)


def stage_synth(cfg: PipelineConfig, n_subjects: int = 40, segments_per_subject: int = 10,
                n_channels: int = 6) -> Path:
    """Write a two-class synthetic cohort as recordings under ``<out>/input``, then ingest it."""
    validate_config(cfg)
    for name, size in dict(n_subjects=n_subjects, segments_per_subject=segments_per_subject,
                           n_channels=n_channels).items():
        if size < 1:  # checked before the old cohort is removed
            raise ValueError(f"{name} must be >= 1")
    src = _out(cfg) / "input"
    shutil.rmtree(src, ignore_errors=True)  # a recording left from an earlier cohort has no label
    src.mkdir(parents=True)
    spec_a = SynthSpec("sine", 1, SYNTH_NOISE, seed=cfg.seed + 100, amp_range=SYNTH_AMPLITUDES)
    spec_b = SynthSpec("noise", 1, 1.0, seed=cfg.seed + 200)
    subjects = gen_two_class_signals(spec_a, spec_b, n_subjects, segments_per_subject,
                                     n_channels, window=cfg.window_samples(), rate=cfg.rate)
    for sub in subjects:
        data = np.hstack([s.data for s in sub.segments])
        save_recording(RawRecording(sub.segments[0].channels, data, cfg.rate),
                       src / f"{sub.subject_id}.csv")
    write_table(src / "labels.csv", [("subject_id", "label"),
                                     *((sub.subject_id, sub.label) for sub in subjects)])
    return stage_ingest(replace(cfg, input_dir=str(src)))


# ---------------------------------------------------------------- embedding

def stage_embed(cfg: PipelineConfig) -> EmbeddingParams:
    """Settle the embedding parameters in params.json (estimated or from config)."""
    validate_config(cfg)
    out = _out(cfg)
    manifest = _manifest(cfg)
    params_path = out / "params.json"
    if params_path.exists():
        return _staged("embed", params_path, _embedding)
    if cfg.auto_params:
        sid = min(manifest["recordings"])
        path = _recording_path(out, manifest, sid)
        try:
            first = cut_recording(path, replace(cfg, **manifest["settings"]),
                                  manifest["recordings"][sid]["sha256"])[0].data
            params = estimate_embedding_params(list(first))
        except Exception as exc:
            raise StageError("embed", f"parameter estimation failed: {exc}", path) from exc
    else:
        params = EmbeddingParams(cfg.m, cfg.tau)
    write_atomic(params_path, json.dumps({"m": params.dim, "tau": params.delay}) + "\n")
    return params


# ------------------------------------------------------------------ denoise

def _segment_job(args) -> list:
    """Bring one recording from the cut to its subject diagram; returns its density rows.

    The recording is cut once, and each segment embedded, denoised and
    persisted, its joint cloud and diagram written on the way.  The diagrams'
    H1 bars merge in segment order, each diagram's in its sorted order, and
    the density-filtered merge is the subject diagram."""
    recording, sha256, sid, segments, target, cfg, embedding = args
    diagrams = []
    for (joint_path, diagram_path), seg in zip(segments, cut_recording(recording, cfg, sha256),
                                               strict=True):
        clouds = [delay_embed(x, embedding) for x in seg.data]
        params = MassParams(cfg.q, cfg.k, cfg.iters, cfg.seed).capped(len(clouds[0]))
        joint = remap_multichannel(clouds, cfg.keep_n, params)
        joint.to_csv(joint_path)
        diagram = rips_diagram(joint.points)
        diagram.to_csv(diagram_path)
        diagrams.append(diagram)
    points = merge_diagrams(diagrams)
    if len(points) == 0:
        PersistenceDiagram().to_csv(target)
        return []
    dens = mkde_density(points, BandwidthSpec.from_covariance(points))
    filter_by_density(points, dens, cfg.keep_fraction).to_csv(target)
    return [[sid, *row] for row in np.column_stack([points, dens]).tolist()]


def _segment_jobs(cfg: PipelineConfig, manifest: dict, embedding: EmbeddingParams,
                  every: bool) -> list:
    """One job per recording that lacks a joint cloud, a diagram or its subject
    diagram, in subject order; with ``every``, one per recording."""
    out = _out(cfg)
    for stage_dir in ("joint", "diagrams", "subject_diagrams"):
        (out / stage_dir).mkdir(exist_ok=True)
    cut_cfg = replace(cfg, **manifest["settings"])
    jobs = []
    for sid, rec in sorted(manifest["recordings"].items()):
        names = [_segment_name(sid, index) for index in range(rec["segments"])]
        segments = [(out / "joint" / name, out / "diagrams" / name) for name in names]
        target = out / "subject_diagrams" / f"{sid}.csv"
        if every or not (target.exists() and all(j.exists() and d.exists() for j, d in segments)):
            jobs.append((_recording_path(out, manifest, sid), rec["sha256"], sid,
                         segments, target, cut_cfg, embedding))
    return jobs


def stage_denoise(cfg: PipelineConfig, emit_density=None) -> None:
    """Denoise, persist and density-filter each recording that misses an output, one
    job each, into its subject diagram.  Given ``emit_density``, redo every
    recording and write each merged point's density there."""
    validate_config(cfg)
    manifest = _manifest(cfg)
    params_path = _out(cfg) / "params.json"
    if not params_path.exists():
        raise StageError("denoise", "params.json missing; run the embed stage", params_path)
    embedding = _staged("denoise", params_path, _embedding)
    rows = _run_jobs(_segment_jobs(cfg, manifest, embedding, emit_density is not None), cfg.jobs)
    if emit_density is not None:
        write_table(emit_density, [("subject_id", "birth", "death", "density"),
                                   *(row for job_rows in rows for row in job_rows)])


# Persist and filter run inside each denoise job and have no entry points of
# their own.  The names stay because a timing harness wraps every stage by name.
stage_persist = stage_denoise
stage_filter = stage_denoise


def _run_jobs(jobs: list, n_workers: int) -> list:
    """Run ``_segment_job`` on every job and return the results in job order:
    in-process at ``n_workers <= 1``, else in one pool of at most one worker per
    job.  An error is a denoise :class:`StageError` naming ``job[0]``, the recording.
    """
    if not jobs:
        return []
    parallel = n_workers > 1
    pool = ProcessPoolExecutor(min(n_workers, len(jobs))) if parallel else contextlib.nullcontext()
    results = []
    with pool:
        returns = (pool.map if parallel else map)(_segment_job, jobs)
        for job in jobs:
            try:
                results.append(next(returns))
            except Exception as exc:
                raise StageError("denoise", str(exc), job[0]) from exc
    return results


# ---------------------------------------------------------------- vectorize

def load_subject_diagrams(cfg: PipelineConfig) -> tuple[dict[str, PersistenceDiagram],
                                                         dict[str, int]]:
    """Filtered diagram and label of every subject, in subject order."""
    sd_dir = _out(cfg) / "subject_diagrams"
    recordings = _manifest(cfg)["recordings"]
    labels = {sid: recordings[sid]["label"] for sid in sorted(recordings)}
    diagrams = {}
    for sid in labels:
        p = sd_dir / f"{sid}.csv"
        if not p.exists():
            raise StageError("vectorize", "subject diagram missing; run the denoise stage", p)
        diagrams[sid] = _staged("vectorize", p, PersistenceDiagram.from_csv)
    return diagrams, labels


# Landscape layers, samples per descriptor curve, and the pooled-persistence
# quantile that places the first weight knot when the subject peaks cannot.
LANDSCAPE_LAYERS = 5
CURVE_BINS = 100
KNOT_QUANTILE = 0.99


def resolve_weights(cfg: PipelineConfig, pooled_persistence: np.ndarray,
                    subject_peaks: np.ndarray) -> WeightParams:
    """Weight knots from config, auto-scaled to the data when left at 0.

    The first knot defaults to ``peak_split_knot`` of the subject peaks, with
    the ``KNOT_QUANTILE`` pooled-persistence quantile as its fallback; the
    second defaults to twice the first.
    """
    if cfg.weight_ramp_start > 0:
        t1 = cfg.weight_ramp_start
    else:
        pos = pooled_persistence[pooled_persistence > 0]
        fallback = float(np.quantile(pos, KNOT_QUANTILE)) if len(pos) else 1.0
        t1 = peak_split_knot(subject_peaks, fallback=fallback)
    t2 = cfg.weight_ramp_end if cfg.weight_ramp_end > 0 else 2.0 * t1
    if t2 <= t1:
        raise StageError("vectorize", f"weight_ramp_end {t2!r} must exceed the auto "
                                      f"ramp start {t1!r}")
    return WeightParams(cfg.weight_plateau, cfg.weight_junction, t1, t2)


def vectorize_features(diagrams: dict[str, PersistenceDiagram], labels: dict[str, int],
                       cfg: PipelineConfig) -> tuple[LabeledDataset, dict]:
    """The feature table, one labelled row per subject in ``diagrams`` order, and ``meta``.

    The table's ``subject_ids`` name the rows.  ``meta`` holds what every row
    shares: the descriptor, the image grid, sigma and extent, and the weight
    knots from ``resolve_weights``.  A table that ``LabeledDataset`` refuses,
    such as one with a non-finite row, is a vectorize :class:`StageError`.
    """
    all_bars = [d.finite_bars(1) for d in diagrams.values()]
    pooled = np.vstack([np.empty((0, 2)), *all_bars])
    pooled_pers = pooled[:, 1] - pooled[:, 0]
    peaks = np.array([(b[:, 1] - b[:, 0]).max() for b in all_bars if len(b)])
    wp = resolve_weights(cfg, pooled_pers, peaks)

    bp = birth_persistence_transform(pooled)
    if len(pooled):
        sigma = cfg.pi_sigma if cfg.pi_sigma > 0 else (float(np.ptp(bp[:, 1])) / 20.0 or 1.0)
        t_hi = float(pooled[:, 1].max())
    else:
        sigma, t_hi = 1.0, 1.0
    extent = default_extent(bp, sigma)
    tgrid = np.linspace(0.0, t_hi, CURVE_BINS)
    meta = {"descriptor": cfg.descriptor, "sigma": sigma, "extent": extent,
            "grid": [cfg.pi_rows, cfg.pi_cols],
            "weights": {"plateau": wp.plateau, "junction": wp.junction,
                        "ramp_start": wp.ramp_start, "ramp_end": wp.ramp_end}}

    rows = []
    for sid, bars in zip(diagrams, all_bars):
        try:
            if cfg.descriptor == "pi":
                bp = birth_persistence_transform(bars)
                img = persistence_image(bp, (cfg.pi_rows, cfg.pi_cols), extent, sigma, wp)
                rows.append(img.reshape(-1))
            elif cfg.descriptor == "landscape":
                rows.append(persistence_landscape(bars, LANDSCAPE_LAYERS, tgrid))
            elif cfg.descriptor == "betti":
                rows.append(betti_curve(bars, tgrid))
            else:
                rows.append(entropy_summary(bars, tgrid))
        except Exception as exc:
            raise StageError("vectorize", str(exc), f"{sid}.csv") from exc
    ids = list(diagrams)
    try:
        data = LabeledDataset(rows, [labels[sid] for sid in ids], ids)
    except ValueError as exc:
        bad = next((sid for sid, row in zip(ids, rows) if not np.isfinite(row).all()), None)
        raise StageError("vectorize", str(exc), bad and f"{bad}.csv") from exc
    return data, meta


def stage_vectorize(cfg: PipelineConfig) -> Path:
    """Write features.csv, one row per subject, and vectorize_meta.json, always anew."""
    validate_config(cfg)
    out = _out(cfg)
    feats_path, meta_path = out / "features.csv", out / "vectorize_meta.json"
    data, meta = vectorize_features(*load_subject_diagrams(cfg), cfg)
    write_atomic(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    save_features_csv(feats_path, data)
    return feats_path


# ----------------------------------------------------------------- classify

def evaluate(data: LabeledDataset, cfg: PipelineConfig) -> EvalReport:
    """Stratified k-fold SVM evaluation at the configured (or grid-searched) C and gamma."""
    c, gamma = cfg.C, (cfg.gamma if cfg.gamma > 0 else None)
    if cfg.grid_search:
        c, gamma = tune_hyperparameters(data, seed=cfg.seed, kernel=cfg.kernel)
    return kfold_cv(data, k=cfg.folds, seed=cfg.seed, kernel=cfg.kernel, C=c, gamma=gamma)


def stage_classify(cfg: PipelineConfig, features_path=None) -> EvalReport:
    validate_config(cfg)
    out = _out(cfg)
    fpath = Path(features_path) if features_path else out / "features.csv"
    if not fpath.exists():
        raise StageError("classify", "features.csv missing; run the vectorize stage", fpath)
    out.mkdir(parents=True, exist_ok=True)
    report = _staged("classify", fpath, lambda p: evaluate(load_features_csv(p), cfg))
    report.save(out / "report.json")
    return report


# ---------------------------------------------------------------------- run

def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    """Execute every stage in order; returns the final evaluation report.

    Ingest runs only when ``out_dir`` holds no manifest.json yet; a cohort
    that ``stage_synth`` (or an earlier ingest) recorded there is used as is.
    """
    validate_config(cfg)
    if not (_out(cfg) / "manifest.json").exists():
        stage_ingest(cfg)
    stage_embed(cfg)
    stage_denoise(cfg)
    stage_vectorize(cfg)
    return stage_classify(cfg)


def sweep_weights(cfg: PipelineConfig, plateau_values, junction_values) -> list[dict]:
    """Re-vectorise and re-classify in memory for every (plateau, junction) pair.

    Requires the subject diagrams to exist already; writes nothing and
    returns one report record per pair.
    """
    diagrams, labels = load_subject_diagrams(cfg)
    results = []
    for a in plateau_values:
        for c in junction_values:
            sub = replace(cfg, weight_plateau=a, weight_junction=c)
            validate_config(sub)
            report = evaluate(vectorize_features(diagrams, labels, sub)[0], sub)
            results.append({"plateau": a, "junction": c,
                            "acc": report.acc, "se": report.se, "sp": report.sp})
    return results
