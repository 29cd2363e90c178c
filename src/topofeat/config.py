"""Pipeline configuration: one flat record of every stage's tunables.

Configs load from a simple ``key = value`` text file; unknown keys are
rejected so typos fail loudly.  CLI flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .diagrams import parse_bandwidth


@dataclass
class PipelineConfig:
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
    ami_bins: int = 16
    ami_max_lag: int = 40
    fnn_m_max: int = 6
    fnn_rtol: float = 10.0
    fnn_atol: float = 2.0
    # denoising
    q: int = 10
    k: int = 350
    keep_n: int = 140
    iters: int = 50
    # diagram filtering
    bandwidth: str = "cov10"      # cov10 | identity:<s> | manual:<4 entries>
    keep_fraction: float = 0.99
    # vectorization
    descriptor: str = "pi"        # pi | landscape | betti | entropy
    pi_rows: int = 20
    pi_cols: int = 20
    pi_sigma: float = 0.0         # 0 = auto (persistence extent / 20)
    weight_plateau: float = 0.0
    weight_junction: float = 3.0
    weight_ramp_start: float = 0.0   # 0 = auto-scale from the data
    weight_ramp_end: float = 0.0     # 0 = 2 x ramp_start
    knot_mode: str = "peaks"         # peaks | quantile (auto-scaling rule)
    knot_quantile: float = 0.99
    landscape_layers: int = 5
    curve_bins: int = 100
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
        if not self.channels:
            return None
        return [c.strip() for c in self.channels.split(",") if c.strip()]


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(name: str, raw: str):
    target = _FIELD_TYPES[name]
    raw = raw.strip()
    if target == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"bad boolean for {name}: {raw!r}")
    if target == "int":
        return int(raw)
    if target == "float":
        return float(raw)
    return raw


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
        updates[key] = _coerce(key, raw)
    return replace(cfg, **updates)


def validate_config(cfg: PipelineConfig) -> None:
    if cfg.rate <= 0:
        raise ValueError("rate must be positive")
    if not 0 < cfg.band_low < cfg.band_high:
        raise ValueError("band must satisfy 0 < low < high")
    if cfg.m < 1 or cfg.tau < 1:
        raise ValueError("m and tau must be >= 1")
    if cfg.q < 1 or cfg.k < 1 or cfg.keep_n < 1:
        raise ValueError("q, k and keep_n must be >= 1")
    if not 0 < cfg.keep_fraction <= 1:
        raise ValueError("keep_fraction must lie in (0, 1]")
    parse_bandwidth(cfg.bandwidth)
    if cfg.descriptor not in ("pi", "landscape", "betti", "entropy"):
        raise ValueError(f"unknown descriptor {cfg.descriptor!r}")
    for name in ("pi_rows", "pi_cols", "curve_bins", "landscape_layers"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if cfg.knot_mode not in ("peaks", "quantile"):
        raise ValueError(f"unknown knot_mode {cfg.knot_mode!r}")
    if cfg.folds < 2:
        raise ValueError("folds must be >= 2")
    if cfg.kernel not in ("linear", "rbf"):
        raise ValueError(f"unknown kernel {cfg.kernel!r}")
    if cfg.C <= 0:
        raise ValueError("C must be positive")
    if cfg.gamma < 0:
        raise ValueError("gamma must be >= 0 (0 = 1/D)")
