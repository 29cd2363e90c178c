"""Loading, band-pass filtering, channel selection and segmentation of recordings.

Input format is the :mod:`topofeat.fileio` table: one column per channel under
a header row of channel names; the sampling rate comes from configuration.
Filtering is zero-phase (forward-backward Butterworth), so the stated
attenuation doubles in dB and phase structure survives embedding.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import butter, filtfilt

from .fileio import read_table, write_table


@dataclass
class RawRecording:
    """Multichannel sampled signal: channel names, (n_channels, n_samples) data, rate."""

    channels: list[str]
    data: np.ndarray
    rate: float
    source_id: str = "recording"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != len(self.channels):
            raise ValueError("data must be (n_channels, n_samples) matching channel names")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("recording contains non-finite values")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("channel names must be unique")
        if self.rate <= 0:
            raise ValueError("sampling rate must be positive")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class Segment:
    """One fixed-length window cut from a recording (channels x window samples)."""

    data: np.ndarray
    source_id: str
    index: int
    channels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("segment data must be (n_channels, window)")


def read_recording(path, rate: float, channels: list[str] | None = None,
                   sha256: str | None = None) -> tuple[RawRecording, str]:
    """The recording at ``path``, named after the file's stem, and the sha256 of its bytes.

    The file is read once, so the bytes hashed are the bytes parsed.  Given
    ``sha256``, bytes that hash otherwise are refused before they are parsed.
    Channels keep the file's column order unless ``channels`` names the ones
    to keep, in the order to keep them.
    """
    path = Path(path)
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if sha256 is not None and digest != sha256:
        raise ValueError("recording changed since ingest (sha256 differs from manifest.json)")
    table = read_table(raw)
    rec = RawRecording(table.header, table.array().T, rate, source_id=path.stem)
    return (select_channels(rec, channels) if channels else rec), digest


def load_recording(path, rate: float = 128.0) -> RawRecording:
    """The recording at ``path`` with every channel, in the file's column order."""
    return read_recording(path, rate)[0]


@functools.lru_cache(maxsize=16)
def _bandpass_coefficients(order: int, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """``butter``'s (b, a) for the band [low, high] in Nyquist units, designed once.

    The arrays are read-only, since every caller shares them.
    """
    b, a = butter(order, [low, high], btype="band")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def bandpass_filter(rec: RawRecording, low_hz: float, high_hz: float, order: int = 4) -> RawRecording:
    """Zero-phase Butterworth band-pass, per channel.

    The signal is reflect-padded by 3x the filter order at each end, run
    forward and backward, then trimmed, so length is preserved and edge
    transients stay out of the segments.
    """
    if order not in (2, 4, 6, 8):
        raise ValueError("filter order must be one of 2, 4, 6, 8")
    nyq = rec.rate / 2.0
    if not 0 < low_hz < high_hz < nyq:
        raise ValueError(f"cutoffs must satisfy 0 < low < high < {nyq} Hz")
    b, a = _bandpass_coefficients(order, low_hz / nyq, high_hz / nyq)
    out = filtfilt(b, a, rec.data, axis=1, padtype="even", padlen=3 * order)
    return RawRecording(list(rec.channels), out, rec.rate, source_id=rec.source_id)


def select_channels(rec: RawRecording, names: list[str]) -> RawRecording:
    """Restrict to the requested channels, in the requested order."""
    pos = {c: i for i, c in enumerate(rec.channels)}
    missing = [n for n in names if n not in pos]
    if missing:
        raise ValueError(f"unknown channel name(s): {missing}")
    idx = [pos[n] for n in names]
    return RawRecording(list(names), rec.data[idx], rec.rate, source_id=rec.source_id)


def segment(rec: RawRecording, window_samples: int) -> list[Segment]:
    """Cut floor(N / window) non-overlapping windows; the remainder is dropped."""
    if window_samples < 1:
        raise ValueError("window must be at least one sample")
    w = window_samples
    return [Segment(rec.data[:, k * w:(k + 1) * w].copy(), rec.source_id, k, list(rec.channels))
            for k in range(rec.n_samples // w)]


def save_recording(rec: RawRecording, path) -> None:
    """Write ``rec`` in the input format ``load_recording`` reads, every value exactly."""
    write_table(path, [rec.channels, *rec.data.T.tolist()])
