"""Topological feature extraction and classification for multichannel time series."""

from .cloud import PointCloud
from .classify import EvalReport, LabeledDataset, kfold_cv, metrics, predict, train_svm
from .config import PipelineConfig, load_config
from .denoise import (CenterSet, MassParams, dtm_profile, kpdtm_eval, kpdtm_fit, prune_cloud,
                      remap_multichannel)
from .diagrams import BandwidthSpec, filter_by_density, merge_diagrams, mkde_density
from .embedding import (EmbeddingParams, average_mutual_information, delay_embed,
                        false_nearest_neighbors, first_minimum_lag)
from .homology import PersistenceDiagram, betti_at, rips_diagram
from .ingest import RawRecording, bandpass_filter, load_recording, segment, select_channels
from .pipeline import StageError, run_pipeline, sweep_weights
from .synth import SynthSpec, gen_cloud, gen_two_class_signals
from .vectorize import (WeightParams, betti_curve, birth_persistence_transform, entropy_summary,
                        persistence_image, persistence_landscape, weight_fn)

__version__ = "0.1.0"
