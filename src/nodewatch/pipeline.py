"""Preprocessing pipeline: chronological split, semi-supervised filtering,
min/max scaling, time-consistency segmentation, and fixed-length windowing.

The order of operations mirrors how models are fed: split first (training
never sees the future), optionally drop anomalous rows, fit the scaler on
the training rows only, then cut windows that cross no gap between
buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .telemetry import BUCKET_SECONDS, NodeDataset


@dataclass
class ScalerParams:
    """Per-feature train-set minimum and maximum."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise DataError("scaler min/max must be 1-D vectors of equal length")
        if np.any(self.minimum > self.maximum):
            raise DataError("scaler has min > max for some feature")


@dataclass
class WindowSet:
    """Sliding windows of W rows whose final row is the target.

    ``rows`` is the scaled (L, N) feature matrix itself, not a copy; ``ends`` indexes
    the rows that end a window, and :meth:`gather` builds any batch of windows on
    demand, so memory stays O(L * N) for any W. Labels and bucket starts are the target's.
    """

    rows: np.ndarray
    ends: np.ndarray
    window_length: int
    target_labels: np.ndarray
    target_bucket_starts: np.ndarray

    def __len__(self) -> int:
        return len(self.ends)

    @property
    def targets(self) -> np.ndarray:
        """(K, N): the last row of each window."""
        return self.rows[self.ends]

    def gather(self, index: slice | np.ndarray) -> np.ndarray:
        """(B, W, N): the windows ``index`` picks, in its order."""
        return self.rows[self.ends[index, None] + np.arange(1 - self.window_length, 1)]


@dataclass
class SplitDataset:
    train: NodeDataset
    test: NodeDataset


def chronological_split(dataset: NodeDataset, ratio: float) -> SplitDataset:
    """Split into past (train) and future (test) with no overlap.

    The first floor(ratio * L) buckets become the training set, for a ratio
    in (0, 1) (the CLI's is ``cli.SPLIT_RATIO``). Splits that leave either side empty,
    as every split of fewer than 2 rows does, are rejected.
    """
    length = len(dataset)
    n_train = int(np.floor(ratio * length))
    if not 0 < n_train < length:
        raise DataError(f"{dataset.node_id}: ratio {ratio} leaves an empty side for {length} rows")
    return SplitDataset(
        train=dataset.take(slice(0, n_train)),
        test=dataset.take(slice(n_train, length)),
    )


def semi_supervised_filter(dataset: NodeDataset) -> NodeDataset:
    """Drop anomalous rows (label 1); the holes become segment boundaries."""
    keep = dataset.labels == 0
    if not np.any(keep):
        raise DataError(
            f"{dataset.node_id}: semi-supervised filter removed every row"
        )
    return dataset.take(np.flatnonzero(keep))


def fit_minmax(train: NodeDataset) -> ScalerParams:
    """Per-feature min/max over the training rows. A feature whose span
    max - min overflows a float is a DataError naming it. ``train`` is not empty."""
    params = ScalerParams(train.features.min(axis=0), train.features.max(axis=0))
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(params.maximum - params.minimum))
    if len(wide):
        name = train.feature_names[wide[0]]
        raise DataError(f"{train.node_id}: feature {name} spans more than a float can hold")
    return params


def apply_minmax(params: ScalerParams, dataset: NodeDataset) -> NodeDataset:
    """Map features through (x - min) / (max - min), without clamping.

    Test values outside the training range deliberately land outside [0, 1]:
    out-of-range readings are themselves anomaly evidence. Constant features
    (max == min) map to 0.0. A value so far out that it overflows when
    scaled is a DataError naming its feature and bucket, with no warning on
    the way; rows the scaler was fitted on never overflow.
    """
    if len(params.minimum) != dataset.feature_count:
        raise DataError(
            f"scaler expects {len(params.minimum)} features, "
            f"dataset has {dataset.feature_count}"
        )
    span = params.maximum - params.minimum
    scaled = np.zeros_like(dataset.features)
    cols = span > 0
    with np.errstate(over="ignore"):
        scaled[:, cols] = (dataset.features[:, cols] - params.minimum[cols]) / span[cols]
    bad = np.flatnonzero(~np.isfinite(scaled))
    if len(bad):
        row, col = divmod(bad[0], dataset.feature_count)
        name, bucket = dataset.feature_names[col], dataset.bucket_starts[row]
        raise DataError(f"feature {name} of bucket {bucket} overflows when scaled")
    return NodeDataset(
        node_id=dataset.node_id,
        bucket_starts=dataset.bucket_starts,
        features=scaled,
        labels=dataset.labels,
        feature_names=list(dataset.feature_names),
    )


def time_consistency_segments(dataset: NodeDataset) -> list[slice]:
    """The maximal runs of exactly-consecutive buckets, as row slices."""
    gaps = np.flatnonzero(np.diff(dataset.bucket_starts) != BUCKET_SECONDS)
    bounds = [0, *(gaps + 1).tolist(), len(dataset)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def make_windows(dataset: NodeDataset, window_length: int) -> WindowSet:
    """Every window of W consecutive buckets that crosses no gap.

    A gap-free run of length L contributes max(0, L - W + 1) windows, for
    W >= 1 as ``ModelSpec`` admits. The target of a window is its final row,
    labelled by that row's label. The rows are finite: ``apply_minmax``
    refuses a row that overflows when scaled.
    """
    run_start = np.zeros(len(dataset), dtype=np.intp)
    for run in time_consistency_segments(dataset):
        run_start[run] = run.start
    # rows that end a full window
    ends = np.flatnonzero(np.arange(len(dataset)) - run_start >= window_length - 1)
    return WindowSet(
        rows=dataset.features,
        ends=ends,
        window_length=window_length,
        target_labels=dataset.labels[ends],
        target_bucket_starts=dataset.bucket_starts[ends],
    )
