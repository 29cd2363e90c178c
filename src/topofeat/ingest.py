"""Loading, band-pass filtering, channel selection and segmentation of recordings.

A recording and each window cut from it are one type, ``RawRecording``:
channel names, a (channels, samples) array and the sampling rate.  Input
format is the :mod:`topofeat.fileio` table: one column per channel under a
header row of channel names; the sampling rate comes from configuration.
Filtering is zero-phase (forward-backward Butterworth), so the stated
attenuation doubles in dB and phase structure survives embedding.  The
band-pass is this package's own, with the bits of scipy's ``butter`` +
``filtfilt``: the design repeats ``butter``'s numpy calls, the initial state
is ``lfilter_zi``'s numpy solve, and the compiled ``filtfilt`` of
``_kernels.c`` runs every channel in one call.  ``scipy.signal`` is not
imported; it would cost every process tens of MB.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import _library
from .fileio import read_table, write_table


@dataclass
class RawRecording:
    """Multichannel sampled signal: channel names, (n_channels, n_samples) data, rate."""

    channels: list[str]
    data: np.ndarray
    rate: float

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


def read_recording(path, rate: float, channels: list[str] | None = None,
                   sha256: str | None = None) -> tuple[RawRecording, str]:
    """The recording at ``path`` and the sha256 of its bytes.

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
    rec = RawRecording(table.header, table.array().T, rate)
    return (select_channels(rec, channels) if channels else rec), digest


def load_recording(path, rate: float = 128.0) -> RawRecording:
    """The recording at ``path`` with every channel, in the file's column order."""
    return read_recording(path, rate)[0]


def _poly(roots: np.ndarray) -> np.ndarray:
    """The real coefficients of the monic polynomial with these conjugate-paired
    roots, as scipy's ``zpk2tf`` forms them: one ``np.convolve`` per root."""
    coef = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        coef = np.convolve(coef, np.stack((one, -root)))
    return np.real(coef).copy()


@functools.lru_cache(maxsize=16)
def _bandpass_coefficients(order: int, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """The (b, a) of ``scipy.signal.butter(order, [low, high], btype="band")``, with
    the band in Nyquist units, bit for bit: the same numpy calls in the same order.

    The analog prototype's poles (``buttap``) are pre-warped with ``fs = 2``,
    moved to the band (``lp2bp_zpk``), mapped to z (``bilinear_zpk``) and
    multiplied out (``zpk2tf``).  Designed once; the arrays are read-only,
    since every caller shares them.
    """
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * np.asarray([low, high], dtype=np.float64) / fs)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    shifted = poles * bw / 2
    poles = np.concatenate((shifted + np.sqrt(shifted**2 - wo**2),
                            shifted - np.sqrt(shifted**2 - wo**2)))
    zeros = np.zeros(order, dtype=np.complex128)
    fs2 = 2.0 * fs
    gain = bw**order * np.real(np.prod(fs2 - zeros) / np.prod(fs2 - poles))
    b = gain * _poly(np.concatenate(((fs2 + zeros) / (fs2 - zeros), -np.ones(order))))
    a = _poly((fs2 + poles) / (fs2 - poles))
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _step_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The filter's state after a unit step has settled, zi = A zi + B, solved with
    numpy as ``scipy.signal.lfilter_zi`` solves it; A is the companion matrix of
    ``a``, whose a[0] is 1."""
    n = len(a)
    companion = np.zeros((n - 1, n - 1))
    companion[0] = -a[1:]
    companion[np.arange(1, n - 1), np.arange(0, n - 2)] = 1
    return np.linalg.solve(np.eye(n - 1) - companion.T, b[1:] - a[1:] * b[0])


def _zero_phase(data: np.ndarray, b: np.ndarray, a: np.ndarray, pad: int) -> np.ndarray:
    """``filtfilt(b, a, data, axis=1, padtype="even", padlen=pad)``, bit for bit, in
    one compiled call for every row."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    rows, n = data.shape
    if n <= pad:
        raise ValueError(f"The length of the input vector x must be greater than padlen, "
                         f"which is {pad}.")
    out = np.empty_like(data)
    if _library().filtfilt(rows, n, data, len(b), b, a, _step_state(b, a), pad, out):
        raise MemoryError("out of memory in the band-pass")
    return out


def bandpass_filter(rec: RawRecording, low_hz: float, high_hz: float, order: int = 4) -> RawRecording:
    """Zero-phase Butterworth band-pass, per channel.

    The signal is mirrored (even extension) by 3x the filter order at each
    end, run forward and backward, then trimmed, so length is preserved and
    edge transients stay out of the segments.  The bits are those of scipy's
    ``filtfilt`` on ``butter``'s coefficients.
    """
    if order not in (2, 4, 6, 8):
        raise ValueError("filter order must be one of 2, 4, 6, 8")
    nyq = rec.rate / 2.0
    if not 0 < low_hz < high_hz < nyq:
        raise ValueError(f"cutoffs must satisfy 0 < low < high < {nyq} Hz")
    b, a = _bandpass_coefficients(order, low_hz / nyq, high_hz / nyq)
    return RawRecording(list(rec.channels), _zero_phase(rec.data, b, a, 3 * order), rec.rate)


def select_channels(rec: RawRecording, names: list[str]) -> RawRecording:
    """Restrict to the requested channels, in the requested order."""
    pos = {c: i for i, c in enumerate(rec.channels)}
    missing = [n for n in names if n not in pos]
    if missing:
        raise ValueError(f"unknown channel name(s): {missing}")
    idx = [pos[n] for n in names]
    return RawRecording(list(names), rec.data[idx], rec.rate)


def segment(rec: RawRecording, window_samples: int) -> list[RawRecording]:
    """Cut floor(N / window) non-overlapping windows, in order, each a recording
    with ``rec``'s channels and rate; the remainder is dropped."""
    if window_samples < 1:
        raise ValueError("window must be at least one sample")
    w = window_samples
    return [RawRecording(list(rec.channels), rec.data[:, k * w:(k + 1) * w].copy(), rec.rate)
            for k in range(rec.n_samples // w)]


def save_recording(rec: RawRecording, path) -> None:
    """Write ``rec`` in the input format ``load_recording`` reads, every value exactly."""
    write_table(path, [rec.channels, *rec.data.T.tolist()])
