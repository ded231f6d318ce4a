"""Per-node anomaly detection for HPC telemetry.

Detectors score each 15-minute bucket of a node's aggregated sensor data
with an anomaly probability; evaluation pools the per-node test scores into
one ROC curve per method.
"""

import importlib
import os

# One BLAS thread per process, set before numpy loads: parallelism comes from
# the "workers" pool and every matrix product is small. A value the user
# exported is left in place.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Where each public name lives. A name is imported on first access
# (PEP 562), so ``import nodewatch`` itself loads no numpy.
_HOMES = {
    "METHODS": "methods",
    "NodeDataset": "telemetry",
    "TrainingConfig": "methods",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
