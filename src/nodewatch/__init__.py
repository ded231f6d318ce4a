"""Per-node anomaly detection for HPC telemetry.

Detectors score each 15-minute bucket of a node's aggregated sensor data
with an anomaly probability; evaluation pools the per-node test scores into
one ROC curve per method.
"""

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
