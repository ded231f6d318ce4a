"""The configuration vocabulary: method names, store paths, training settings.

Everything here is plain Python, so a command can validate its config and
check the model store without loading numpy; the modules that compute
import these names from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .util import is_int, is_real

METHODS = ("EXP", "CLU", "DENSE_semi", "DENSE_un", "RUAD_semi", "RUAD")
WINDOWED_METHODS = ("RUAD_semi", "RUAD")


def method_instance_name(method: str, window: int | None = None) -> str:
    """Concrete store/report name; windowed methods get a W suffix."""
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in WINDOWED_METHODS:
        if window is None:
            raise DataError(f"{method} requires a window length")
        return f"{method}_W{window}"
    return method


def model_path(store_dir: str | Path, node_id: str, name: str) -> Path:
    return Path(store_dir) / node_id / f"{name}.json"


@dataclass
class TrainingConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not is_real(self.learning_rate) or self.learning_rate < 0:
            raise DataError(f"learning_rate must be a number >= 0, got {self.learning_rate!r}")
        counts = (self.batch_size, self.max_epochs, self.early_stop_patience)
        if not all(is_int(c) and c >= 1 for c in counts):
            raise DataError("batch_size, max_epochs and patience must be integers >= 1")
        if not is_int(self.seed):
            raise DataError(f"seed must be an integer, got {self.seed!r}")


def check_alpha(alpha: float) -> None:
    """The smoothing factor of the exponential baseline lies in (0, 1]."""
    if not is_real(alpha) or not 0.0 < alpha <= 1.0:
        raise DataError(f"alpha must be a number in (0, 1], got {alpha!r}")
