#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the topofeat pipeline.

    python3 perfbench/run.py --workload cohort --seed 0 --seconds 40 --trace 0

Run from the root of a topofeat checkout.  The benchmark sets the workload
up from ``--seed`` (input generation, plus the prepared cohort for
``reeval``), then starts timed runs of the workload while ``--seconds``
last, each in a fresh process on a fresh output directory.  It checks every
run's outputs against the reference digests in ``reference.json`` (or, for a
seed without one, against the other runs) and prints one JSON object as the
last line of standard output.

``--trace 0`` sets up three times and reports the end-to-end metrics:
the median set-up time and medians over the timed runs.  ``--trace 1``
instead makes rounds of an untraced ``jobs=1`` run, a ``jobs=nproc`` run
when the workload uses the pool, and a traced ``jobs=1`` run, and reports
the per-layer metrics named ``<module>.<metric>``, each a median over the
rounds.
"""

import os

# One BLAS/OpenMP thread per process, so jobs=nproc never oversubscribes the
# cores.  Set before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# --trace 0 sets up SETUP_RUNS times, then makes timed runs while --seconds
# last, at least MIN_RUNS.  --trace 1 makes rounds of runs while --seconds
# last, at least MIN_ROUNDS, so that the traced run and its untraced twins
# alternate and a slow stretch of the machine hits them alike.
SETUP_RUNS = 3
MIN_RUNS = 3
MIN_ROUNDS = 2
RUN_TIMEOUT_S = 60


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(p.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit, "src_sha256": src.hexdigest(),
            "blas_threads": 1}


def run_once(wl, work: Path, inputs: Path, jobs: int, prepared: Path | None = None,
             kernels: bool = False) -> dict:
    """One workload run in a fresh worker process on a fresh output directory."""
    out, result = work / "out", work / "result.json"
    if out.exists():
        shutil.rmtree(out)
    if prepared is not None:
        shutil.copytree(prepared, out)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name, "--inputs",
           str(inputs), "--out", str(out), "--jobs", str(jobs), "--result", str(result)]
    proc = subprocess.Popen(cmd + (["--kernels"] if kernels else []), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"run exceeded {RUN_TIMEOUT_S} s"}
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool, on interrupt
        proc.communicate()
        raise
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not result.exists():
        return {"error": f"worker exited {proc.returncode}: {err[-2000:]}"}
    return json.loads(result.read_text())


def problems(res: dict, reference: dict | None, agreed: str | None) -> list[str]:
    """Why a run counts as failed; empty when its outputs are correct."""
    if "error" in res:
        return [res["error"]]
    found = list(res["problems"])
    if reference is not None:
        if res["digest"] != reference["digest"]:
            found.append("output digest differs from the reference")
        if res["report"] != reference["report"]:
            found.append(f"ACC/SE/SP {res['report']} differ from the reference {reference['report']}")
    elif agreed is not None and res["digest"] != agreed:
        found.append("output digest differs from the other runs of this seed")
    return found


def print_outputs(res: dict) -> None:
    """The values ``reference.json`` holds for a seed, as this code produced them."""
    print("outputs " + json.dumps({"digest": res["digest"], "report": res["report"]}), flush=True)


def set_up(wl, seed: int, inputs: Path, prepared: Path | None) -> float:
    """Input generation, plus the prepared cohort if any; returns its duration."""
    from workloads import generate_inputs, prepare_cohort

    t = time.perf_counter()
    generate_inputs(wl, seed, inputs)
    if prepared is not None:
        prepare_cohort(wl, inputs, prepared)
    return time.perf_counter() - t


def measure(wl, work, inputs, prepared, seed, seconds, reference) -> tuple[dict, int, int]:
    """End-to-end metrics: medians over the set-ups and the timed runs."""
    setup = [set_up(wl, seed, inputs, prepared) for _ in range(SETUP_RUNS)]
    print("setup " + ", ".join(f"{t:.3f}" for t in setup) + " s", flush=True)
    runs, failed, agreed, start = [], 0, None, time.perf_counter()
    while len(runs) + failed < MIN_RUNS or time.perf_counter() - start < seconds:
        res = run_once(wl, work, inputs, wl.n_jobs, prepared)
        bad = problems(res, reference, agreed)
        agreed = agreed or res.get("digest")
        print(f"run {len(runs) + failed + 1}: " + (f"FAILED {bad}" if bad else
              f"wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"rss {res['peak_rss_mb']:.1f} MB ({res['rss_self_mb']:.1f} + {res['rss_worker_mb']:.1f}), stages "
              + ", ".join(f"{k.removeprefix('stage_')} {v:.3f}" for k, v in res["stage_walls"].items())),
              flush=True)
        if bad:
            failed += 1
        else:
            runs.append(res)
    if not runs:
        return {}, failed, failed
    print_outputs(runs[0])

    def med(key):
        return statistics.median(r[key] for r in runs)

    metrics = {"wall_s": (med("wall_s"), "s"), "cpu_s": (med("cpu_s"), "s"),
               "peak_rss_mb": (med("peak_rss_mb"), "MB"),
               "artifact_mb": (statistics.median(r["artifact_bytes"] for r in runs) / 1e6, "MB"),
               "setup_s": (statistics.median(setup), "s")}
    return metrics, len(runs) + failed, failed


def trace(wl, work, inputs, prepared, seconds, reference) -> tuple[dict, int, int]:
    """Per-layer metrics: medians over rounds of a traced jobs=1 run and its untraced twins."""
    import tracing

    kinds = ("untraced", "parallel", "traced") if wl.n_jobs > 1 else ("untraced", "traced")
    rounds, attempted, agreed, start = [], 0, None, time.perf_counter()
    # Outputs must be byte-identical whatever --jobs is, and with tracing on.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rnd = {}
        for kind in kinds:
            res = run_once(wl, work, inputs, wl.n_jobs if kind == "parallel" else 1, prepared,
                           kernels=kind == "traced")
            attempted += 1
            bad = problems(res, reference, agreed)
            agreed = agreed or res.get("digest")
            print(f"round {len(rounds) + 1} {kind} run: "
                  + (f"FAILED {bad}" if bad else f"wall {res['wall_s']:.3f} s"), flush=True)
            if bad:
                return {}, attempted, 1
            rnd[kind] = res
        rounds.append(rnd)
    print_outputs(rounds[0]["untraced"])

    def med(f):
        return statistics.median(f(r) for r in rounds)

    def speedup(stage):
        def ratio(r):
            par = r["parallel"]["stage_walls"][stage]
            return r["untraced"]["stage_walls"][stage] / par if par else 0.0
        return med(ratio) if "parallel" in kinds else 0.0

    per_run = []
    for r in rounds:
        t = r["traced"]
        per_run.append({**tracing.summarize(t["spans"], t["wall_s"]), **t["files"],
                        "pipeline.resume_s": t["resume_s"], "pipeline.reused_frac": t["reused_frac"]})
    m = {k: statistics.median(p[k] for p in per_run) for k in per_run[0]}
    m["pipeline.speedup.denoise"] = speedup("stage_denoise")
    m["pipeline.speedup.homology"] = speedup("stage_persist")
    m["bench.traced_wall_s"] = med(lambda r: r["traced"]["wall_s"])
    m["bench.untraced_wall_s"] = med(lambda r: r["untraced"]["wall_s"])
    m["bench.trace_overhead_s"] = med(lambda r: r["traced"]["wall_s"] - r["untraced"]["wall_s"])
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {u["name"]: (m[u["name"]], u["unit"]) for u in units}, attempted, 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so runs in flight are stopped
    if not (SRC / "topofeat" / "pipeline.py").is_file():
        print(f"error: {SRC / 'topofeat'} not found; run from the root of a topofeat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    from workloads import WORK, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text()).get(
        wl.name, {}).get(str(args.seed))
    print("env " + json.dumps(environment(wl.name, args.seed)), flush=True)

    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    inputs, prepared = work / "inputs", (work / "prepared" if wl.prepared else None)
    try:
        if args.trace:
            set_up(wl, args.seed, inputs, prepared)
            metrics, attempted, failed = trace(wl, work, inputs, prepared, args.seconds,
                                               reference)
        else:
            metrics, attempted, failed = measure(wl, work, inputs, prepared, args.seed,
                                                 args.seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other workload is using it
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
