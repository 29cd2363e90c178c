"""Seeded synthetic data: clouds with known topology and two-class signal sets.

Everything here is deterministic in the seed, so tests and experiment runs
can pin exact inputs.  The two-class generator produces a "periodic" class
whose delay embedding carries one strong loop, and an "aperiodic" class of
smoothed noise with no loop, power-matched so amplitude alone cannot
separate them.  Signals are ``ingest.RawRecording``s, a whole recording and
each window cut from it alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cloud import PointCloud
from .ingest import RawRecording, segment as cut_segments

KINDS = ("circle", "blob", "circle_plus_blob", "sine", "logistic", "noise")


SMOOTH_WIDTH = 15  # moving-average span of the synthetic background noise


@dataclass(frozen=True)
class SynthSpec:
    """What to generate: shape/signal kind, count, noise amplitude and seed.

    ``n2`` is the secondary component count (the blob in circle_plus_blob);
    ``amp_range`` bounds the per-recording amplitude draw of periodic kinds.
    """

    kind: str
    n: int
    noise_level: float = 0.0
    seed: int = 0
    n2: int = 0
    amp_range: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")
        if not 0 < self.amp_range[0] <= self.amp_range[1]:
            raise ValueError("amp_range must satisfy 0 < low <= high")


def _smoothed_noise(rng: np.random.Generator, n: int, width: int = SMOOTH_WIDTH) -> np.ndarray:
    """Moving-average-filtered white noise, rescaled to unit variance."""
    white = rng.normal(size=n + width)
    kernel = np.ones(width) / width
    out = np.convolve(white, kernel, mode="valid")[:n]
    return out * np.sqrt(width)


def _series(spec: SynthSpec, rng: np.random.Generator, n: int, amp: float = 1.0) -> np.ndarray:
    if spec.kind == "sine":
        period = 40.0
        phase = rng.uniform(0, 2 * np.pi)
        t = np.arange(n)
        return amp * np.sin(2 * np.pi * t / period + phase) + spec.noise_level * _smoothed_noise(rng, n)
    if spec.kind == "logistic":
        x = rng.uniform(0.2, 0.8)
        out = np.empty(n)
        for i in range(n):
            x = 3.9 * x * (1.0 - x)
            out[i] = x
        return out + spec.noise_level * rng.normal(size=n)
    if spec.kind == "noise":
        scale = spec.noise_level if spec.noise_level > 0 else 1.0
        return scale * _smoothed_noise(rng, n)
    raise ValueError(f"kind {spec.kind!r} is not a series kind")


def gen_cloud(spec: SynthSpec) -> tuple[PointCloud, np.ndarray]:
    """Cloud plus a per-point label array naming the generating component."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "circle":
        theta = 2 * np.pi * np.arange(spec.n) / spec.n
        pts = np.c_[np.cos(theta), np.sin(theta)]
        if spec.noise_level > 0:
            pts = pts + spec.noise_level * rng.normal(size=pts.shape)
        return PointCloud(pts), np.array(["circle"] * spec.n)
    if spec.kind == "blob":
        std = spec.noise_level if spec.noise_level > 0 else 1.0
        pts = std * rng.normal(size=(spec.n, 2))
        return PointCloud(pts), np.array(["blob"] * spec.n)
    if spec.kind == "circle_plus_blob":
        theta = 2 * np.pi * np.arange(spec.n) / spec.n
        ring = np.c_[np.cos(theta), np.sin(theta)]
        std = spec.noise_level if spec.noise_level > 0 else 0.15
        blob = std * rng.normal(size=(max(spec.n2, 1), 2))
        pts = np.vstack([ring, blob])
        labels = np.array(["circle"] * spec.n + ["blob"] * len(blob))
        return PointCloud(pts, time_index=np.arange(len(pts))), labels
    series = _series(spec, rng, spec.n)
    cloud = PointCloud(series.reshape(-1, 1), time_index=np.arange(spec.n))
    return cloud, np.array([spec.kind] * spec.n)


@dataclass
class SubjectRecord:
    """One synthetic subject: identifier, class label and its windows."""

    subject_id: str
    label: int
    segments: list[RawRecording]


def gen_signal_recording(spec: SynthSpec, n_channels: int, n_samples: int,
                         rate: float = 128.0) -> RawRecording:
    """Multichannel recording of the spec's signal kind, independent per channel.

    One amplitude is drawn per recording (the attractor size varies across
    subjects, not across channels); phases and noise are per-channel.
    """
    rng = np.random.default_rng(spec.seed)
    amp = float(rng.uniform(*spec.amp_range))
    rows = [_series(spec, rng, n_samples, amp=amp) for _ in range(n_channels)]
    channels = [f"ch{i}" for i in range(n_channels)]
    return RawRecording(channels, np.vstack(rows), rate)


def gen_two_class_signals(spec_a: SynthSpec, spec_b: SynthSpec, n_subjects: int,
                          segments_per_subject: int, n_channels: int,
                          window: int = 512, rate: float = 128.0) -> list[SubjectRecord]:
    """Labelled subjects: class A (label 1) from spec_a, class B (label 0) from spec_b.

    Each subject's spec is its class's spec with the seed shifted
    deterministically (``dataclasses.replace``, so every other field carries
    over); per channel the phase/noise stream is independent.  A subject's
    windows are the ``RawRecording``s that ``ingest.segment`` cuts.  Class B signals are rescaled to
    class A's marginal spread so the classes differ in structure, not power.
    """
    subjects = []
    n_samples = window * segments_per_subject
    mean_amp_sq = (spec_a.amp_range[0] ** 2 + spec_a.amp_range[0] * spec_a.amp_range[1]
                   + spec_a.amp_range[1] ** 2) / 3.0
    for cls, spec in ((1, spec_a), (0, spec_b)):
        for s in range(n_subjects):
            sid = f"{'a' if cls == 1 else 'b'}{s:03d}"
            rec = gen_signal_recording(replace(spec, seed=spec.seed + 7919 * s + cls),
                                       n_channels, n_samples, rate)
            if cls == 0:
                # match class A's average marginal power so amplitude is no cue
                target = np.sqrt(0.5 * mean_amp_sq + spec_a.noise_level ** 2)
                sd = rec.data.std(axis=1, keepdims=True)
                sd[sd == 0] = 1.0
                rec = RawRecording(rec.channels, rec.data / sd * target, rate)
            subjects.append(SubjectRecord(sid, cls, cut_segments(rec, window)))
    return subjects
