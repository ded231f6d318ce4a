from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from nodewatch.telemetry import BUCKET_SECONDS, NodeDataset

# property tests draw the same examples on every run and keep no example
# database, so a run's outcome depends on the code alone
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def build_dataset(
    labels,
    features=None,
    bucket_starts=None,
    node_id="test_node",
    n_features=2,
    seed=0,
):
    """NodeDataset helper: consecutive buckets unless bucket_starts given."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if bucket_starts is None:
        bucket_starts = np.arange(n, dtype=np.int64) * BUCKET_SECONDS
    if features is None:
        rng = np.random.default_rng(seed)
        features = rng.uniform(0.0, 10.0, size=(n, n_features))
    return NodeDataset(
        node_id=node_id,
        bucket_starts=np.asarray(bucket_starts, dtype=np.int64),
        features=np.asarray(features, dtype=np.float64),
        labels=labels,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def parses(monkeypatch):
    """The path of every NodeDataset.from_csv call, in call order."""
    calls = []
    read = NodeDataset.from_csv.__func__

    def counting_read(cls, path, data):
        calls.append(Path(path))
        return read(cls, path, data)

    monkeypatch.setattr(NodeDataset, "from_csv", classmethod(counting_read))
    return calls
