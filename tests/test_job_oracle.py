"""One recording job, from the cut to the subject diagram and its densities, against
the same steps composed from the suite's oracles, bit for bit."""

import math

import numpy as np
from hypothesis import given, strategies as st
from oracles import compute_persistence, full_recompute_fit, rips_filtration
from scipy.signal import butter, filtfilt
from scipy.spatial.distance import cdist, pdist

from topofeat.config import PipelineConfig
from topofeat.denoise import MassParams
from topofeat.diagrams import BandwidthSpec
from topofeat.embedding import EmbeddingParams, delay_embed
from topofeat.homology import PersistenceDiagram
from topofeat.ingest import RawRecording, load_recording, save_recording
from topofeat.pipeline import _segment_job

RATE = 16.0


def double_loop_density(points, h):
    """Gaussian MKDE at every point, one pair at a time.  The quadratic form sums
    d_k * Hinv_kl * d_l over k, then l, in the order ``mkde_density``'s einsum does."""
    hinv = np.linalg.inv(h)
    norm = 1.0 / (2.0 * math.pi * math.sqrt(float(np.linalg.det(h))))
    out = []
    for x in points.tolist():
        exponents = []
        for y in points.tolist():
            d = (x[0] - y[0], x[1] - y[1])
            quad = 0.0
            for k in range(2):
                for l in range(2):
                    quad += d[k] * hinv[k, l] * d[l]
            exponents.append(-0.5 * quad)
        out.append(norm * np.exp(np.array(exponents)).mean())
    return out


def highest_first(values, count):
    """Positions of the ``count`` largest values, ties to the earlier one, in input order."""
    return sorted(sorted(range(len(values)), key=lambda i: (-values[i], i))[:count])


def slow_job(path, sid, cfg, embedding):
    """The subject diagram text and density rows of one recording, from the oracles."""
    signal = load_recording(path, cfg.rate).data
    if cfg.apply_bandpass:  # scipy's band-pass, which the cut's own must equal bit for bit
        nyq = cfg.rate / 2
        b, a = butter(cfg.filter_order, [cfg.band_low / nyq, cfg.band_high / nyq], btype="band")
        signal = filtfilt(b, a, signal, axis=1, padtype="even", padlen=3 * cfg.filter_order)
    w = cfg.window_samples()
    points = []
    for index in range(signal.shape[1] // w):
        clouds = [delay_embed(x, embedding) for x in signal[:, index * w:(index + 1) * w]]
        n = len(clouds[0])
        params = MassParams(min(cfg.q, n), min(cfg.k, n), cfg.iters, cfg.seed)
        scores = np.zeros(n)
        for cloud in clouds:
            centers = full_recompute_fit(cloud.points, params)
            scores += (cdist(cloud.points, centers.means, "sqeuclidean")
                       + centers.variances).min(axis=1)
        scores /= len(clouds)
        kept = highest_first(scores.tolist(), cfg.keep_n)
        joint = np.hstack([cloud.points[kept] for cloud in clouds])
        scale = float(pdist(joint).max()) or 1.0  # 0 if every point coincides
        diagram = compute_persistence(rips_filtration(joint, max_scale=scale))
        points += [(b, d) for dim, b, d in sorted(diagram.features) if dim == 1 and d < math.inf]
    if not points:
        return PersistenceDiagram().to_csv_text(), []
    merged = np.array(points)
    dens = double_loop_density(merged, BandwidthSpec.from_covariance(merged).as_array())
    kept = highest_first(dens, math.ceil(cfg.keep_fraction * len(points)))
    subject = PersistenceDiagram((1, *points[i]) for i in kept)
    return subject.to_csv_text(), [[sid, b, d, f] for (b, d), f in zip(points, dens)]


@st.composite
def recordings(draw):
    """A recording with repeated values, its job settings and embedding."""
    channels, windows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m, tau, keep_n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 30))
    lag = (m - 1) * tau
    w = draw(st.integers(max(8, lag + keep_n), lag + keep_n + 10))
    levels, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))
    samples = windows * w + draw(st.integers(0, w - 1))  # the remainder is never cut
    signal = np.random.default_rng(seed).integers(-levels, levels + 1, (channels, samples)) / 2.0
    cfg = PipelineConfig(rate=RATE, window_sec=w / RATE, apply_bandpass=draw(st.booleans()),
                         band_low=0.5, band_high=6.0, filter_order=2,
                         q=draw(st.integers(1, 5)), k=draw(st.integers(1, w - lag)),
                         keep_n=keep_n, iters=draw(st.integers(1, 20)),
                         seed=draw(st.integers(0, 3)),
                         keep_fraction=draw(st.sampled_from([0.4, 0.75, 0.99, 1.0])))
    return signal, cfg, EmbeddingParams(m, tau)


@given(recordings())
def test_segment_job_matches_slow_job(tmp_path_factory, case):
    signal, cfg, embedding = case
    work = tmp_path_factory.mktemp("job")
    path = work / "s0.csv"
    save_recording(RawRecording([f"c{i}" for i in range(len(signal))], signal, RATE), path)
    windows = signal.shape[1] // cfg.window_samples()
    segments = [(work / f"joint_{i}.csv", work / f"diagram_{i}.csv") for i in range(windows)]
    rows = _segment_job((path, None, "s0", segments, work / "subject.csv", cfg, embedding))
    text, expected_rows = slow_job(path, "s0", cfg, embedding)
    assert (work / "subject.csv").read_text() == text
    assert np.array([r[1:] for r in rows]).tobytes() == \
        np.array([r[1:] for r in expected_rows]).tobytes()
    assert [r[0] for r in rows] == ["s0"] * len(expected_rows)
