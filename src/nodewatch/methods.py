"""The configuration vocabulary: method names, store paths, training settings.

Everything here is plain Python, so a command can validate its config and
check the model store without loading numpy; the modules that compute
import these names from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .util import check_fields, ranged

METHODS = ("EXP", "CLU", "DENSE_semi", "DENSE_un", "RUAD_semi", "RUAD")
WINDOWED_METHODS = ("RUAD_semi", "RUAD")


def method_instance_name(method: str, window: int | None = None) -> str:
    """Concrete store/report name of a known method; windowed methods get a W suffix."""
    return f"{method}_W{window}" if method in WINDOWED_METHODS else method


def model_path(store_dir: str | Path, node_id: str, name: str) -> Path:
    return Path(store_dir) / node_id / f"{name}.json"


@dataclass
class TrainingConfig:
    learning_rate: float = ranged("[0, inf)", 1e-3)
    batch_size: int = ranged("[1, inf)", 32)
    max_epochs: int = ranged("[1, inf)", 50)
    early_stop_patience: int = ranged("[1, inf)", 5)
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
