"""Workload definitions and input generation, shared by the runner and its worker.

Every workload starts from raw recordings written as ``<sid>.csv`` plus
``labels.csv``, so the pipeline receives only files.  The recordings are the
ones ``topofeat synth --seed <seed>`` would cut into segments: the benchmark
seed drives the signal generator, while the pipeline's own seed (k-PDTM
initialisation, fold assignment) stays at 0 as in the paper runs.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from topofeat.config import PipelineConfig
from topofeat.pipeline import run_pipeline
from topofeat.synth import SynthSpec, gen_two_class_signals

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SWEEP_PLATEAU = "0,0.5,1,2"
SWEEP_JUNCTION = "1,2,3,5"


@dataclass(frozen=True)
class Workload:
    """Cohort shape and pipeline settings of one benchmark workload.

    ``jobs = 0`` means one worker per CPU.  A ``prepared`` workload builds a
    complete output directory during set-up and times re-evaluation of a
    fresh copy of it instead of a run from raw CSV.
    """

    name: str
    subjects: int          # per class
    segments: int          # per subject
    channels: int
    window_sec: float
    keep_n: int
    folds: int
    jobs: int
    prepared: bool = False

    @property
    def n_jobs(self) -> int:
        return self.jobs or (os.cpu_count() or 1)


# Sizes are chosen so that one run of the pipeline takes a few seconds on a
# 2-core machine, letting each benchmark run time several runs and report
# their median.
WORKLOADS = {
    # Paper configuration; homology (140 x 12 joint clouds) dominates, denoise
    # second; the only workload that goes through the process pool.
    "cohort": Workload("cohort", subjects=10, segments=2, channels=6, window_sec=4.0,
                       keep_n=140, folds=10, jobs=0),
    # Re-evaluation of a prepared cohort: full-resume run, weight sweep and the
    # descriptor experiment; reuses artifacts, so no denoise or persist work.
    "reeval": Workload("reeval", subjects=10, segments=1, channels=6, window_sec=4.0,
                       keep_n=140, folds=10, jobs=1, prepared=True),
}


def pipeline_config(wl: Workload, inputs: Path, out: Path, jobs: int) -> PipelineConfig:
    return PipelineConfig(input_dir=str(inputs), out_dir=str(out), window_sec=wl.window_sec,
                          keep_n=wl.keep_n, folds=wl.folds, jobs=jobs, seed=0)


def generate_inputs(wl: Workload, seed: int, dest: Path) -> None:
    """Write the raw recordings and labels.csv of one workload into ``dest``."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    rate = 128.0
    spec_a = SynthSpec("sine", 1, 0.3, seed=seed + 100, amp_range=(0.55, 1.0))
    spec_b = SynthSpec("noise", 1, 1.0, seed=seed + 200)
    subjects = gen_two_class_signals(spec_a, spec_b, wl.subjects, wl.segments, wl.channels,
                                     window=int(round(wl.window_sec * rate)), rate=rate)
    for sub in subjects:
        data = np.hstack([s.data for s in sub.segments])
        lines = [",".join(sub.segments[0].channels)]
        lines.extend(",".join(repr(float(v)) for v in row) for row in data.T)
        (dest / f"{sub.subject_id}.csv").write_text("\n".join(lines) + "\n")
    labels = ["subject_id,label"] + [f"{s.subject_id},{s.label}" for s in subjects]
    (dest / "labels.csv").write_text("\n".join(labels) + "\n")


def prepare_cohort(wl: Workload, inputs: Path, dest: Path) -> None:
    """Run the whole pipeline once, leaving the directory re-evaluation starts from."""
    if dest.exists():
        shutil.rmtree(dest)
    run_pipeline(pipeline_config(wl, inputs, dest, os.cpu_count() or 1))
