"""One timed run of a benchmark workload, in a fresh process.

Started by ``run.py`` for every timed run so that peak RSS and the workers'
rusage belong to that run alone.  It installs the tracing wrappers, runs
the workload against ``--out`` through the public entry points, and writes
timings, file counts, output digest and (with ``--kernels``) all spans to
``--result`` as JSON.

    python3 perfbench/worker.py --workload cohort --inputs DIR --out DIR \
        --jobs 2 --result FILE [--kernels]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import ROOT, SWEEP_JUNCTION, SWEEP_PLATEAU, WORKLOADS, pipeline_config

DIGESTED = ("diagrams/*.csv", "joint/*.csv", "features.csv", "report.json",
            "sweep_table.json", "experiment_summary.json")
INPUT_COPIES = ("manifest.json", "labels.csv", "subject_diagrams")


def snapshot(out: Path) -> dict[str, tuple[int, int]]:
    """relative path -> (size, mtime_ns) of every file under ``out``."""
    snap = {}
    for dirpath, _, files in os.walk(out):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            snap[os.path.relpath(os.path.join(dirpath, f), out)] = (st.st_size, st.st_mtime_ns)
    return snap


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for pattern in DIGESTED:
        for p in sorted(out.glob(pattern)):
            h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def file_metrics(before: dict, after: dict) -> dict[str, float]:
    """Counts and bytes of the files a run created or rewrote, by the layer that owns them."""
    written = {p: size for p, (size, mtime) in after.items() if before.get(p) != (size, mtime)}
    parts = {p: Path(p).parts for p in written}
    segments = [p for p in written if len(parts[p]) == 1 and "_seg" in p]
    clouds = [p for p in written if parts[p][0] == "clouds"]
    copies = [p for p in written if parts[p][0].startswith(("sweep_", "eval_"))
              and len(parts[p]) > 1 and parts[p][1] in INPUT_COPIES]
    return {
        "ingest.segments": len(segments),
        "ingest.bytes_written": sum(written[p] for p in segments) + sum(
            written.get(p, 0) for p in ("manifest.json", "labels.csv")),
        "embedding.clouds_written": len(clouds),
        "embedding.bytes_written": sum(written[p] for p in clouds) + written.get("params.json", 0),
        "pipeline.copied_bytes": sum(written[p] for p in copies),
    }


def reused_frac(before: dict, after: dict) -> float:
    """Share of the files present before a resume that it left untouched."""
    return sum(after.get(p) == v for p, v in before.items()) / len(before) if before else 0.0


def structural_problems(wl, out: Path) -> list[str]:
    problems = []
    n_seg, n_sub = 2 * wl.subjects * wl.segments, 2 * wl.subjects
    if len(list(out.glob("diagrams/*.csv"))) != n_seg:
        problems.append(f"expected {n_seg} segment diagrams")
    feats = out / "features.csv"
    if not feats.exists() or len(feats.read_text().splitlines()) != n_sub + 1:
        problems.append(f"expected features.csv with {n_sub} rows")
    report = json.loads((out / "report.json").read_text())
    if not all(0.0 <= report[k] <= 1.0 for k in ("acc", "se", "sp")):
        problems.append("report.json ACC/SE/SP outside [0, 1]")
    if wl.prepared:
        if len(json.loads((out / "sweep_table.json").read_text())) != 16:
            problems.append("sweep table does not hold 16 weight pairs")
        summary = json.loads((out / "experiment_summary.json").read_text())
        if set(summary) != {"pi", "landscape", "betti", "entropy", "permuted_control"}:
            problems.append("experiment summary lacks a descriptor or the control")
    return problems


def run_experiment_script(argv: list[str]) -> None:
    spec = importlib.util.spec_from_file_location(
        "run_synthetic_experiment", ROOT / "scripts" / "run_synthetic_experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    saved = sys.argv
    sys.argv = ["run_synthetic_experiment.py", *argv]
    try:
        if module.main() != 0:
            raise RuntimeError("run_synthetic_experiment failed")
    finally:
        sys.argv = saved


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--kernels", action="store_true", help="trace the kernels too")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = tracing.Tracer(f"{wl.name}-{os.getpid()}-{time.time_ns()}")
    tracing.install(tracer, "kernels" if args.kernels else "stages")
    from topofeat import cli, pipeline  # after install, so cli binds the wrapped functions

    cfg = pipeline_config(wl, Path(args.inputs), out, args.jobs)
    result: dict = {}
    try:
        before = snapshot(out)
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if wl.prepared:
            common = ["--out", str(out), "--jobs", str(args.jobs), "--seed", "0"]
            if cli.main(["run", "--input", args.inputs, *common]) != 0:
                raise RuntimeError("topofeat run failed")
            result["resume_s"] = time.perf_counter() - t0
            if cli.main(["sweep", *common, "--plateau-values", SWEEP_PLATEAU,
                         "--junction-values", SWEEP_JUNCTION, "--folds", str(wl.folds),
                         "--table", str(out / "sweep_table.json")]) != 0:
                raise RuntimeError("topofeat sweep failed")
            run_experiment_script([*common, "--folds", str(wl.folds),
                                   "--subjects", str(wl.subjects), "--segments", str(wl.segments),
                                   "--channels", str(wl.channels)])
        else:
            pipeline.run_pipeline(cfg)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = cpu_seconds() - cpu0
        tracer.finish()
        timed_spans = list(tracer.spans)
        after = snapshot(out)
        result["stage_walls"] = tracing.stage_walls(timed_spans)
        result["artifact_bytes"] = sum(size for size, _ in after.values())
        result["files"] = file_metrics(before, after)
        result["reused_frac"] = reused_frac(before, after)
        result["digest"] = digest(out)
        result["report"] = {k: v for k, v in json.loads((out / "report.json").read_text()).items()
                            if k in ("acc", "se", "sp")}
        result["problems"] = structural_problems(wl, out)
        result["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["rss_worker_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result["peak_rss_mb"] = result["rss_self_mb"] + result["rss_worker_mb"]
        if args.kernels and not wl.prepared:
            # A second run over the finished directory: every stage finds its outputs.
            t1 = time.perf_counter()
            pipeline.run_pipeline(cfg)
            result["resume_s"] = time.perf_counter() - t1
            result["reused_frac"] = reused_frac(after, snapshot(out))
        if args.kernels:
            result["spans"] = timed_spans
    except Exception:
        result["error"] = traceback.format_exc()
    Path(args.result).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
