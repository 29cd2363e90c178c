"""Pipeline configuration: one flat record of every stage's tunables.

Configs load from a simple ``key = value`` text file; unknown keys are
rejected so typos fail loudly, and so is the key of a setting that has
become a fixed constant of the method.  CLI flags override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path


DESCRIPTORS = ("pi", "landscape", "betti", "entropy")
KERNELS = ("linear", "rbf")


@dataclass
class PipelineConfig:
    """Every setting a stage reads; each field is the target of a CLI flag.

    Fixed choices of the method (the AMI bins, the FNN tolerances, dimension
    cap and threshold, the ``cov10`` bandwidth rule with its scale and ridge,
    image padding, SMO tolerance, inner grid-search folds, landscape layers,
    curve bins, knot fallback quantile) are constants next to the code that
    reads them.  ``validate_config`` checks every field before any stage.
    """

    # ingest
    input_dir: str = ""
    out_dir: str = "out"
    rate: float = 128.0
    band_low: float = 0.5
    band_high: float = 50.0
    filter_order: int = 4
    channels: str = ""            # comma list; empty = all
    window_sec: float = 4.0
    apply_bandpass: bool = True
    # embedding
    m: int = 2
    tau: int = 10
    auto_params: bool = False
    # denoising
    q: int = 10
    k: int = 350
    keep_n: int = 140
    iters: int = 50
    # diagram filtering
    keep_fraction: float = 0.99
    # vectorization
    descriptor: str = "pi"        # pi | landscape | betti | entropy
    pi_rows: int = 20
    pi_cols: int = 20
    pi_sigma: float = 0.0         # 0 = auto (persistence range / 20)
    weight_plateau: float = 0.0
    weight_junction: float = 3.0
    weight_ramp_start: float = 0.0   # 0 = auto-scale from the data
    weight_ramp_end: float = 0.0     # 0 = 2 x ramp_start
    # classification
    kernel: str = "rbf"
    C: float = 1.0
    gamma: float = 0.0            # 0 = 1/D
    folds: int = 10
    grid_search: bool = False
    # misc
    seed: int = 0
    jobs: int = 1

    def window_samples(self) -> int:
        return int(round(self.window_sec * self.rate))

    def channel_list(self) -> list[str] | None:
        return [c.strip() for c in self.channels.split(",") if c.strip()] or None


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(name: str, raw: str):
    target = _FIELD_TYPES[name]
    if target == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(raw)
    return {"int": int, "float": float}.get(target, str)(raw)


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse ``key = value`` lines ('#' comments allowed) over a base config."""
    cfg = base or PipelineConfig()
    updates = {}
    for lineno, ln in enumerate(Path(path).read_text().splitlines(), start=1):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise ValueError(f"config line {lineno}: expected key = value, got {ln!r}")
        key, raw = [part.strip() for part in ln.split("=", 1)]
        if key not in _FIELD_TYPES:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _coerce(key, raw)
        except ValueError:
            article = "an" if _FIELD_TYPES[key] == "int" else "a"
            raise ValueError(f"config line {lineno}: {key} expects {article} "
                             f"{_FIELD_TYPES[key]}, got {raw!r}") from None
    return replace(cfg, **updates)


# Fields that must be above 0, and the least value of each other numeric field
# with a bound; 0 is "auto" for pi_sigma, the ramp knots and gamma.
_POSITIVE = ("rate", "C")
_MINIMA = {"m": 1, "tau": 1, "q": 1, "k": 1, "keep_n": 1, "iters": 1,
           "pi_rows": 1, "pi_cols": 1, "folds": 2, "pi_sigma": 0, "weight_plateau": 0,
           "weight_junction": 0, "weight_ramp_start": 0, "weight_ramp_end": 0, "gamma": 0,
           "seed": 0, "jobs": 1}


def validate_config(cfg: PipelineConfig) -> None:
    """Raise ``ValueError`` naming the first bad field; nothing is read or written."""
    for name, kind in _FIELD_TYPES.items():
        if kind == "float" and not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite")
    for name in _POSITIVE:
        if getattr(cfg, name) <= 0:
            raise ValueError(f"{name} must be positive")
    for name, least in _MINIMA.items():
        if getattr(cfg, name) < least:
            raise ValueError(f"{name} must be >= {least}")
    if not 0 < cfg.band_low < cfg.band_high:
        raise ValueError("band must satisfy 0 < low < high")
    if cfg.apply_bandpass and cfg.band_high >= cfg.rate / 2:
        raise ValueError(f"band_high must be below rate / 2 = {cfg.rate / 2} Hz")
    if cfg.filter_order not in (2, 4, 6, 8):
        raise ValueError(f"filter_order must be one of 2, 4, 6, 8, got {cfg.filter_order}")
    if not math.isfinite(cfg.window_sec * cfg.rate):
        raise ValueError("window_sec * rate must be finite")
    if cfg.window_samples() < 1:
        raise ValueError("window_sec * rate must be at least one sample")
    if 0 < cfg.weight_ramp_end <= cfg.weight_ramp_start:
        raise ValueError("weight_ramp_end must exceed weight_ramp_start")
    if not 0 < cfg.keep_fraction <= 1:
        raise ValueError("keep_fraction must lie in (0, 1]")
    if cfg.descriptor not in DESCRIPTORS:
        raise ValueError(f"unknown descriptor {cfg.descriptor!r}")
    if cfg.kernel not in KERNELS:
        raise ValueError(f"unknown kernel {cfg.kernel!r}")
