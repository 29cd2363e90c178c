"""The functions a benchmark wraps by attribute still exist where it looks them up.

A timing harness replaces module attributes (``pipeline.rips_diagram``,
``classify.train_svm``, ...) with wrappers.  If one of them is renamed or
inlined, the wrapper times nothing and its call count reads 0 without any
error, so these tests pin the names and one call path.
"""

import numpy as np
import pytest

from topofeat import classify, denoise, pipeline
from topofeat.classify import LabeledDataset
from topofeat.cloud import PointCloud
from topofeat.config import PipelineConfig

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
