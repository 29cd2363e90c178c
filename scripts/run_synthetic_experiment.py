#!/usr/bin/env python3
"""End-to-end synthetic experiment: pipeline run, descriptor comparison, controls.

Generates the two-class dataset (unless ``--out`` already holds a cohort),
runs every stage, then re-vectorises the subject diagrams in memory with each
descriptor and reports ACC/SE/SP, plus a label-permutation control for the
headline persistence-image features.
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from topofeat.classify import LabeledDataset, load_features_csv
from topofeat.config import PipelineConfig
from topofeat.fileio import write_atomic
from topofeat.pipeline import (evaluate, load_subject_diagrams, run_pipeline, stage_synth,
                               vectorize_features)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_synthetic")
    ap.add_argument("--subjects", type=int, default=40)
    ap.add_argument("--segments", type=int, default=10)
    ap.add_argument("--channels", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--folds", type=int, default=10)
    args = ap.parse_args(argv)

    t0 = time.time()
    cfg = PipelineConfig(out_dir=args.out, seed=args.seed, jobs=args.jobs, folds=args.folds)
    if not (Path(args.out) / "manifest.json").exists():
        stage_synth(cfg, n_subjects=args.subjects, segments_per_subject=args.segments,
                    n_channels=args.channels)
    report = run_pipeline(cfg)
    print(f"[{time.time() - t0:6.0f}s] pipeline (pi): "
          f"acc={report.acc:.4f} se={report.se:.4f} sp={report.sp:.4f}")

    summary = {"pi": {"acc": report.acc, "se": report.se, "sp": report.sp}}
    diagrams, labels = load_subject_diagrams(cfg)
    for descriptor in ("landscape", "betti", "entropy"):
        sub = replace(cfg, descriptor=descriptor)
        rep = evaluate(vectorize_features(diagrams, labels, sub)[0], sub)
        summary[descriptor] = {"acc": rep.acc, "se": rep.se, "sp": rep.sp}
        print(f"[{time.time() - t0:6.0f}s] {descriptor}: "
              f"acc={rep.acc:.4f} se={rep.se:.4f} sp={rep.sp:.4f}")

    data = load_features_csv(Path(args.out) / "features.csv")
    rng = np.random.default_rng(args.seed + 1)
    permuted = LabeledDataset(data.features, rng.permutation(data.labels))
    null = evaluate(permuted, cfg)
    summary["permuted_control"] = {"acc": null.acc}
    print(f"[{time.time() - t0:6.0f}s] label-permuted control: acc={null.acc:.4f}")

    write_atomic(Path(args.out) / "experiment_summary.json",
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
