"""The functions a benchmark wraps by attribute still exist where it looks them up.

A timing harness replaces module attributes (``pipeline.rips_diagram``,
``classify.train_svm``, ...) with wrappers.  If one of them is renamed or
inlined, the wrapper times nothing and its call count reads 0 without any
error, so these tests pin the names, and the call paths of an evaluation and
of a recording job.
"""

import numpy as np
import pytest

from topofeat import classify, denoise, pipeline
from topofeat.classify import LabeledDataset
from topofeat.cloud import PointCloud
from topofeat.config import PipelineConfig
from topofeat.embedding import EmbeddingParams
from topofeat.ingest import RawRecording, save_recording

HOOKS = [
    (pipeline, name) for name in (
        "stage_ingest", "stage_embed", "stage_denoise", "stage_persist", "stage_filter",
        "stage_vectorize", "stage_classify", "run_pipeline", "sweep_weights",
        "remap_multichannel", "rips_diagram", "mkde_density", "filter_by_density",
        "persistence_image", "kfold_cv")
] + [(denoise, "kpdtm_fit"), (classify, "kfold_cv"), (classify, "train_svm"),
     (PointCloud, "from_csv"), (PointCloud, "to_csv")]


@pytest.mark.parametrize("owner, name", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS])
def test_hook_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_evaluate_trains_through_the_module_attribute(monkeypatch):
    calls = []
    train = classify.train_svm

    def counting(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr("topofeat.classify.train_svm", counting)
    rng = np.random.default_rng(5)
    data = LabeledDataset(rng.normal(size=(20, 3)), np.array([0, 1] * 10))
    pipeline.evaluate(data, PipelineConfig(folds=5))
    assert len(calls) == 5


def test_persist_is_denoise():
    """Persist runs inside each denoise job; its stage name is kept as an alias."""
    assert pipeline.stage_persist is pipeline.stage_denoise


def test_filter_is_denoise():
    """The density filter runs inside each denoise job; its stage name is kept as an alias."""
    assert pipeline.stage_filter is pipeline.stage_denoise


def test_recording_job_calls_each_kernel_through_its_module_attribute(tmp_path, monkeypatch):
    segments, channels, rate = 3, 2, 16.0
    cfg = PipelineConfig(rate=rate, window_sec=4.0, apply_bandpass=False, q=3, k=20,
                         keep_n=30, iters=10)
    w = cfg.window_samples()
    path = tmp_path / "s0.csv"
    signal = np.random.default_rng(3).normal(size=(channels, segments * w))
    save_recording(RawRecording([f"c{i}" for i in range(channels)], signal, rate), path)
    calls = {}
    for owner, name in [(pipeline, "remap_multichannel"), (pipeline, "rips_diagram"),
                        (pipeline, "mkde_density"), (pipeline, "filter_by_density"),
                        (denoise, "kpdtm_fit")]:
        def counting(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    outputs = [(tmp_path / f"joint_{i}.csv", tmp_path / f"diagram_{i}.csv")
               for i in range(segments)]
    pipeline._segment_job((path, None, "s0", outputs, tmp_path / "subject.csv", cfg,
                           EmbeddingParams(2, 1)))
    assert calls == {"remap_multichannel": segments, "rips_diagram": segments,
                     "mkde_density": 1, "filter_by_density": 1,
                     "kpdtm_fit": segments * channels}
