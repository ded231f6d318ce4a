"""Anomaly scoring and ROC evaluation.

Scores follow the reconstruction-error chain: L1 error against the target
vector, normalization by the training-set maximum error, and a clamp to
[0, 1] to form an anomaly probability. Evaluation sweeps every observed
probability as a decision threshold and reports the area under the
resulting ROC curve, per node or pooled across nodes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .util import csv_line

MAX_ERROR_FLOOR = 1e-12

SCORE_COLUMNS = ["node_id", "bucket_start", "probability", "label"]


@dataclass
class ScoreSeries:
    """Per-bucket anomaly probabilities (and labels) for one node."""

    node_id: str
    bucket_starts: np.ndarray
    probabilities: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.bucket_starts = np.asarray(self.bucket_starts, dtype=np.int64)
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.bucket_starts)
        if not (len(self.probabilities) == n == len(self.labels)):
            raise DataError("score series columns must align")
        if n > 1 and not np.all(np.diff(self.bucket_starts) > 0):
            raise DataError("score series bucket_starts must be strictly increasing")
        if not np.all(np.isfinite(self.probabilities)):
            raise DataError("probabilities must be finite")
        if n and (self.probabilities.min() < 0.0 or self.probabilities.max() > 1.0):
            raise DataError("probabilities must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.bucket_starts)


@dataclass
class RocReport:
    """Threshold sweep (descending) with trapezoidal AUC.

    ``points`` is an (n, 3) array of (threshold, fpr, tpr) rows from the
    +inf sentinel at (0, 0) down to the smallest observed score at (1, 1).
    """

    points: np.ndarray
    auc: float
    positives: int
    negatives: int

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "positives": self.positives,
            "negatives": self.negatives,
        }

    def write_points_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [csv_line(["threshold", "fpr", "tpr"])]
        lines.extend(",".join(map(repr, row)) + "\r\n" for row in self.points.tolist())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(lines))


def anomaly_probability(normalized_errors: np.ndarray) -> np.ndarray:
    """Clamp normalized errors at 1 to form probabilities."""
    if np.any(normalized_errors < 0):
        raise DataError(f"normalized errors must be >= 0, got {normalized_errors.min()}")
    return np.minimum(normalized_errors, 1.0)


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocReport:
    """Exact ROC over all observed score thresholds.

    Tied scores move between classes together, which makes the trapezoidal
    area identical to the Mann-Whitney pairwise statistic with ties counted
    as one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be equal-length vectors")
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0:
        raise DataError("ROC undefined: no positive (label 1) samples")
    if negatives == 0:
        raise DataError("ROC undefined: no negative (label 0) samples")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of each tie group
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    group_ends = np.concatenate((distinct, [len(scores) - 1]))

    points = np.empty((len(group_ends) + 1, 3))
    points[0] = (np.inf, 0.0, 0.0)
    points[1:, 0] = sorted_scores[group_ends]
    points[1:, 1] = np.cumsum(sorted_labels == 0)[group_ends] / negatives
    points[1:, 2] = np.cumsum(sorted_labels == 1)[group_ends] / positives

    fpr, tpr = points[:, 1], points[:, 2]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocReport(points=points, auc=auc, positives=positives, negatives=negatives)


def pool_nodes(series_list: list[ScoreSeries]) -> RocReport:
    """Concatenate all nodes' (probability, label) pairs and compute one ROC.

    Nodes are unweighted: a node with more scored buckets contributes more
    pairs, exactly as if its rows had been appended to one big test set.
    """
    if not series_list:
        raise DataError("cannot pool an empty list of score series")
    scores = np.concatenate([s.probabilities for s in series_list])
    labels = np.concatenate([s.labels for s in series_list])
    return roc_curve(scores, labels)


def write_scores_csv(path: str | Path, series_list: list[ScoreSeries]) -> None:
    """Write pooled score rows as ``node_id,bucket_start,probability,label``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [csv_line(SCORE_COLUMNS)]
    for series in series_list:
        node = csv_line([series.node_id, ""])[:-2]  # the node id as quoted, and its comma
        rows = zip(
            series.bucket_starts.tolist(), series.probabilities.tolist(), series.labels.tolist()
        )
        lines.extend(node + ",".join(map(repr, row)) + "\r\n" for row in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def read_scores_csv(path: str | Path) -> list[ScoreSeries]:
    """Read a score CSV back into per-node series (rows grouped by node).

    A wrong header, a row without exactly four cells, a cell that does not
    parse and rows that break a ScoreSeries rule are each a DataError naming
    the file.
    """
    rows_by_node: dict[str, list[tuple[int, float, int]]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SCORE_COLUMNS:
            raise DataError(f"{path}: expected header {','.join(SCORE_COLUMNS)}")
        for row in reader:
            try:
                node_id, bucket, probability, label = row
                parsed = (int(bucket), float(probability), int(label))
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: bad score row ({exc})") from None
            rows_by_node.setdefault(node_id, []).append(parsed)
    series_list = []
    for node_id in sorted(rows_by_node):
        rows = sorted(rows_by_node[node_id])
        try:
            series_list.append(
                ScoreSeries(
                    node_id=node_id,
                    bucket_starts=np.array([r[0] for r in rows], dtype=np.int64),
                    probabilities=np.array([r[1] for r in rows], dtype=np.float64),
                    labels=np.array([r[2] for r in rows], dtype=np.int64),
                )
            )
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return series_list
