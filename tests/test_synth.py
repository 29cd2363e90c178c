import numpy as np
import pytest

from topofeat.embedding import EmbeddingParams, delay_embed
from topofeat.homology import rips_diagram
from topofeat.synth import (SMOOTH_WIDTH, SubjectRecord, SynthSpec, gen_cloud,
                            gen_signal_recording, gen_two_class_signals)


class TestGenCloud:
    def test_noise_free_circle(self):
        cloud, labels = gen_cloud(SynthSpec("circle", 20, 0.0, seed=1))
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12
        assert list(labels) == ["circle"] * 20

    def test_circle_plus_blob_labels(self):
        cloud, labels = gen_cloud(SynthSpec("circle_plus_blob", 140, 0.12, seed=3, n2=400))
        assert len(cloud) == 540
        assert (labels == "circle").sum() == 140
        assert (labels == "blob").sum() == 400
        assert np.array_equal(cloud.time_index, np.arange(540))

    def test_seed_determinism(self):
        a, _ = gen_cloud(SynthSpec("blob", 50, 0.5, seed=9))
        b, _ = gen_cloud(SynthSpec("blob", 50, 0.5, seed=9))
        assert np.array_equal(a.points, b.points)
        c, _ = gen_cloud(SynthSpec("blob", 50, 0.5, seed=10))
        assert not np.array_equal(a.points, c.points)

    def test_series_kinds_are_1d_clouds(self):
        for kind in ("sine", "noise", "logistic"):
            cloud, labels = gen_cloud(SynthSpec(kind, 100, 0.1, seed=2))
            assert cloud.dim == 1 and len(cloud) == 100
            assert labels[0] == kind

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec("triangle", 10)
        with pytest.raises(ValueError):
            SynthSpec("circle", 0)
        with pytest.raises(ValueError):
            SynthSpec("circle", 10, -0.1)
        with pytest.raises(ValueError):
            SynthSpec("sine", 10, amp_range=(0.0, 1.0))


class TestGenSignals:
    def test_shapes_and_labels(self):
        subjects = gen_two_class_signals(SynthSpec("sine", 1, 0.3, seed=1),
                                         SynthSpec("noise", 1, 1.0, seed=2),
                                         n_subjects=3, segments_per_subject=2,
                                         n_channels=4, window=256)
        assert len(subjects) == 6
        assert sum(s.label for s in subjects) == 3
        for sub in subjects:
            assert isinstance(sub, SubjectRecord)
            assert len(sub.segments) == 2
            assert all(seg.data.shape == (4, 256) for seg in sub.segments)

    def test_determinism(self):
        kwargs = dict(n_subjects=2, segments_per_subject=1, n_channels=2, window=128)
        a = gen_two_class_signals(SynthSpec("sine", 1, 0.3, seed=1),
                                  SynthSpec("noise", 1, 1.0, seed=2), **kwargs)
        b = gen_two_class_signals(SynthSpec("sine", 1, 0.3, seed=1),
                                  SynthSpec("noise", 1, 1.0, seed=2), **kwargs)
        for sa, sb in zip(a, b):
            assert sa.subject_id == sb.subject_id and sa.label == sb.label
            for ga, gb in zip(sa.segments, sb.segments):
                assert np.array_equal(ga.data, gb.data)

    def test_power_matched_classes(self):
        subjects = gen_two_class_signals(SynthSpec("sine", 1, 0.3, seed=1, amp_range=(1.0, 1.0)),
                                         SynthSpec("noise", 1, 1.0, seed=2),
                                         n_subjects=4, segments_per_subject=2,
                                         n_channels=3, window=512)
        stds = {0: [], 1: []}
        for sub in subjects:
            for seg in sub.segments:
                stds[sub.label].extend(seg.data.std(axis=1).tolist())
        ratio = np.mean(stds[0]) / np.mean(stds[1])
        assert 0.8 < ratio < 1.25

    def test_periodic_class_has_dominant_loop(self):
        # per-channel embeddings: each periodic channel carries one dominant
        # bar, and the aperiodic class's typical strongest bar stays under
        # 0.3x of the periodic class's (band-limited noise throws occasional
        # moderate loops, so the comparison is between class medians)
        subjects = gen_two_class_signals(SynthSpec("sine", 1, 0.2, seed=100, amp_range=(1.0, 1.0)),
                                         SynthSpec("noise", 1, 1.0, seed=200),
                                         n_subjects=3, segments_per_subject=1,
                                         n_channels=2, window=256)
        params = EmbeddingParams(2, 10)
        tops = {0: [], 1: []}
        ratios = []
        for sub in subjects:
            for seg in sub.segments:
                for ch in range(2):
                    bars = rips_diagram(delay_embed(seg.data[ch], params).points).finite_bars(1)
                    pers = np.sort(bars[:, 1] - bars[:, 0])[::-1]
                    tops[sub.label].append(float(pers[0]) if len(pers) else 0.0)
                    if sub.label == 1:
                        runner = pers[1] if len(pers) > 1 else 0.0
                        ratios.append(pers[0] / max(runner, 1e-9))
        assert np.median(ratios) > 3  # one dominant loop per periodic channel
        assert np.median(tops[0]) < 0.3 * np.median(tops[1])


class TestGenRecording:
    def test_channel_independence_and_amp_draw(self):
        rec = gen_signal_recording(SynthSpec("sine", 1, 0.0, seed=5, amp_range=(0.5, 1.0)),
                                   n_channels=3, n_samples=400)
        assert rec.data.shape == (3, 400)
        amps = rec.data.max(axis=1)
        assert np.allclose(amps, amps[0], atol=0.05)  # shared amplitude
        assert not np.allclose(rec.data[0], rec.data[1])  # independent phases
        assert 0.45 <= amps[0] <= 1.05

    def test_smooth_width_constant(self):
        assert SMOOTH_WIDTH == 15
