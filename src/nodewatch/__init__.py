"""Per-node anomaly detection for HPC telemetry.

Detectors score each 15-minute bucket of a node's aggregated sensor data
with an anomaly probability; evaluation pools the per-node test scores into
one ROC curve per method.
"""

import os

# One BLAS thread per process, set before numpy loads: parallelism comes from
# the "workers" pool and every matrix product is small. A value the user
# exported is left in place.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baselines import KMeansModel
from .models import METHODS, ModelSpec, Regime, TrainedModel
from .neuralnet import NetworkParams, TrainingConfig
from .pipeline import ScalerParams, WindowSet
from .scoring import RocReport, ScoreSeries
from .synthgen import SynthConfig
from .telemetry import NodeDataset

__version__ = "0.1.0"

__all__ = [
    "KMeansModel",
    "METHODS",
    "ModelSpec",
    "NetworkParams",
    "NodeDataset",
    "Regime",
    "RocReport",
    "ScalerParams",
    "ScoreSeries",
    "SynthConfig",
    "TrainedModel",
    "TrainingConfig",
    "WindowSet",
    "__version__",
]
