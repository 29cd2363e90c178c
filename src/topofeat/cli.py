"""Command-line entry points for the pipeline stages and whole-run workflows.

Every subcommand exits 0 on success and nonzero with a stage-tagged message
on failure.  Flags override values from ``--config`` (a ``key = value``
file); see the README for the artifact layout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import DESCRIPTORS, KERNELS, PipelineConfig, load_config
from .fileio import write_atomic
from .pipeline import (run_pipeline, stage_classify, stage_denoise, stage_embed, stage_ingest,
                       stage_synth, stage_vectorize, sweep_weights)
from .plots import plot


def _converter(parse, expected: str):
    """An argparse ``type=`` whose error names what the option expects."""
    def convert(text: str):
        try:
            return parse(text)
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _low_high(text: str) -> tuple[float, float]:
    low, high = text.split(":")
    return float(low), float(high)


_band = _converter(_low_high, "low:high in Hz")
_gamma = _converter(lambda text: 0.0 if text == "auto" else float(text), "a number or 'auto'")
_floats = _converter(lambda text: [float(v) for v in text.split(",")], "a comma list of numbers")
_on_off = _converter(lambda text: {"on": True, "off": False}[text], "on or off")


def _base_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    overrides = {key: val for key, val in vars(args).items()
                 if key in PipelineConfig.__dataclass_fields__ and val is not None}
    if getattr(args, "band", None):
        overrides["band_low"], overrides["band_high"] = args.band
    return replace(cfg, **overrides)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--out", dest="out_dir", help="artifact directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help="worker processes for denoise, one job per recording")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="topofeat",
        description="Topological feature extraction and classification for multichannel time series")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="check each recording and record it in manifest.json")
    _add_common(p)
    p.add_argument("--input", dest="input_dir", required=True)
    p.add_argument("--rate", type=float)
    p.add_argument("--band", type=_band, help="low:high cutoff in Hz, e.g. 0.5:50")
    p.add_argument("--order", dest="filter_order", type=int, help="Butterworth order (2/4/6/8)")
    p.add_argument("--channels", help="comma-separated channel names to keep")
    p.add_argument("--window-sec", type=float)
    p.add_argument("--no-bandpass", dest="apply_bandpass", action="store_false", default=None)

    p = sub.add_parser("synth", help="generate a labelled two-class synthetic dataset")
    _add_common(p)
    p.add_argument("--subjects", type=int, default=40, help="subjects per class")
    p.add_argument("--segments", type=int, default=10, help="segments per subject")
    p.add_argument("--channels-n", type=int, default=6)
    p.add_argument("--rate", type=float)
    p.add_argument("--window-sec", type=float)

    p = sub.add_parser("embed", help="settle the delay-embedding parameters m and tau")
    _add_common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--auto-params", dest="auto_params", type=_on_off, metavar="{on,off}")
    p.add_argument("--bins", dest="ami_bins", type=int)
    p.add_argument("--rtol", dest="fnn_rtol", type=float)
    p.add_argument("--atol", dest="fnn_atol", type=float)

    p = sub.add_parser("denoise", help="denoise, persist and density-filter each recording")
    _add_common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--keep", dest="keep_n", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--bandwidth", help="cov10 | identity:<s> | manual:<4 entries>")
    p.add_argument("--keep-fraction", dest="keep_fraction", type=float)
    p.add_argument("--emit-density", help="optional CSV dump of point densities")

    p = sub.add_parser("vectorize", help="turn subject diagrams into feature vectors")
    _add_common(p)
    p.add_argument("--descriptor", choices=DESCRIPTORS)
    p.add_argument("--pi-rows", dest="pi_rows", type=int)
    p.add_argument("--pi-cols", dest="pi_cols", type=int)
    p.add_argument("--sigma", dest="pi_sigma", type=float)
    p.add_argument("--plateau", dest="weight_plateau", type=float)
    p.add_argument("--junction", dest="weight_junction", type=float)
    p.add_argument("--ramp-start", dest="weight_ramp_start", type=float)
    p.add_argument("--ramp-end", dest="weight_ramp_end", type=float)

    p = sub.add_parser("classify", help="stratified k-fold SVM evaluation")
    _add_common(p)
    p.add_argument("--features", help="features CSV (defaults to <out>/features.csv)")
    p.add_argument("--kernel", choices=KERNELS)
    p.add_argument("--C", dest="C", type=float)
    p.add_argument("--gamma", type=_gamma, help="rbf width, or 'auto' for 1/D")
    p.add_argument("--folds", type=int)
    p.add_argument("--grid-search", dest="grid_search", action="store_true", default=None)
    p.add_argument("--report", help="also copy the report JSON here")

    p = sub.add_parser("run", help="run every stage end to end (ingest unless --out has a manifest)")
    _add_common(p)
    p.add_argument("--input", dest="input_dir")
    p.add_argument("--rate", type=float)
    p.add_argument("--channels", help="comma-separated channel names to keep")
    p.add_argument("--window-sec", type=float)
    p.add_argument("--descriptor", choices=DESCRIPTORS)
    p.add_argument("--folds", type=int)
    p.add_argument("--kernel", choices=KERNELS)
    p.add_argument("--grid-search", dest="grid_search", action="store_true", default=None)

    p = sub.add_parser("sweep", help="re-vectorize and re-classify over weight parameters")
    _add_common(p)
    p.add_argument("--plateau-values", type=_floats, required=True, help="comma list, e.g. 0,1")
    p.add_argument("--junction-values", type=_floats, required=True, help="comma list, e.g. 1,3")
    p.add_argument("--folds", type=int)
    p.add_argument("--kernel", choices=KERNELS)
    p.add_argument("--grid-search", dest="grid_search", action="store_true", default=None)
    p.add_argument("--table", help="write the result table to this JSON file")

    p = sub.add_parser("plot", help="draw a diagram CSV as a scatter, barcode or persistence image")
    p.add_argument("--artifact", required=True,
                   help="diagram CSV; an image reads vectorize_meta.json from its run directory")
    p.add_argument("--type", required=True, choices=["diagram", "barcode", "image"])
    p.add_argument("--output", required=True, help="output SVG (diagram/barcode) or PNG (image)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            plot(args.artifact, args.type, args.output)
            print(f"wrote {args.output}")
            return 0
        cfg = _base_config(args)
        if args.command == "ingest":
            manifest = stage_ingest(cfg)
            print(f"wrote {manifest}")
        elif args.command == "synth":
            manifest = stage_synth(cfg, n_subjects=args.subjects,
                                   segments_per_subject=args.segments, n_channels=args.channels_n)
            print(f"wrote {manifest}")
        elif args.command == "embed":
            params = stage_embed(cfg)
            print(f"embedding parameters m={params.dim} tau={params.delay}")
        elif args.command == "denoise":
            stage_denoise(cfg, emit_density=args.emit_density)
            print("joint clouds, diagrams and subject diagrams written")
        elif args.command == "vectorize":
            path = stage_vectorize(cfg)
            print(f"wrote {path}")
        elif args.command == "classify":
            report = stage_classify(cfg, features_path=args.features)
            if args.report:
                write_atomic(args.report, report.to_json())
            print(f"acc={report.acc:.4f} se={report.se:.4f} sp={report.sp:.4f}")
        elif args.command == "run":
            report = run_pipeline(cfg)
            print(f"acc={report.acc:.4f} se={report.se:.4f} sp={report.sp:.4f}")
        elif args.command == "sweep":
            grid = sweep_weights(cfg, args.plateau_values, args.junction_values)
            text = json.dumps(grid, indent=2, sort_keys=True) + "\n"
            if args.table:
                write_atomic(args.table, text)
            for row in grid:
                print(f"plateau={row['plateau']} junction={row['junction']}: "
                      f"acc={row['acc']:.4f} se={row['se']:.4f} sp={row['sp']:.4f}")
        return 0
    except (RuntimeError, ValueError, OSError) as exc:  # StageError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
