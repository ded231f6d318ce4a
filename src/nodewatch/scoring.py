"""Score files and ROC evaluation, in plain Python.

A score series holds one node's per-bucket anomaly probabilities and
labels. Evaluation sweeps every observed probability as a decision
threshold and reports the area under the resulting ROC curve, per node or
pooled across nodes. Nothing here imports numpy, so evaluating cached score
files loads no numpy. The area is counted in integers and divided once, so
every AUC is the float nearest to the exact Mann-Whitney ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .errors import DataError
from .util import csv_line, write_atomic

SCORE_COLUMNS = ["node_id", "bucket_start", "probability", "label"]


def _plain(column: Sequence) -> list:
    """A column as a list of Python numbers; ``tolist`` converts a numpy
    array several times faster than iterating over its elements."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


@dataclass
class ScoreSeries:
    """Per-bucket anomaly probabilities (and labels) for one node.

    The columns are any sequences: the detectors give numpy arrays, and a
    score file reads back as lists.
    """

    node_id: str
    bucket_starts: Sequence[int]
    probabilities: Sequence[float]
    labels: Sequence[int]

    def __post_init__(self) -> None:
        starts, probabilities = _plain(self.bucket_starts), _plain(self.probabilities)
        if not (len(probabilities) == len(starts) == len(self.labels)):
            raise DataError("score series columns must align")
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise DataError("score series bucket_starts must be strictly increasing")
        if not all(map(math.isfinite, probabilities)):
            raise DataError("probabilities must be finite")
        if not all(0.0 <= p <= 1.0 for p in probabilities):
            raise DataError("probabilities must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.bucket_starts)


@dataclass
class RocReport:
    """Threshold sweep (descending) and the area under it (see :func:`roc_curve`).

    ``points`` is a list of (threshold, fpr, tpr) tuples from the +inf
    sentinel at (0, 0) down to the smallest observed score at (1, 1).
    ``nodes`` maps each pooled node to its own figures (see
    :func:`pool_nodes`); it is empty for a single :func:`roc_curve`.
    """

    points: list[tuple[float, float, float]]
    auc: float
    positives: int
    negatives: int
    nodes: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "positives": self.positives,
            "negatives": self.negatives,
            "nodes": self.nodes,
        }

    def write_points_csv(self, path: str | Path) -> bytes:
        lines = [csv_line(["threshold", "fpr", "tpr"])]
        lines.extend(",".join(map(repr, row)) + "\r\n" for row in self.points)
        return write_atomic(path, "".join(lines))


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> RocReport:
    """Exact ROC over all observed score thresholds.

    Tied scores move between classes together, which makes the trapezoidal
    area identical to the Mann-Whitney pairwise statistic with ties counted
    as one half. The area is an integer count of pairs, divided once: the
    AUC is the float nearest the true ratio (CPython's int / int rounds so).
    """
    scores = [float(s) for s in _plain(scores)]
    labels = _plain(labels)
    if len(scores) != len(labels):
        raise DataError("scores and labels must be equal-length vectors")
    positives = labels.count(1)
    negatives = labels.count(0)
    if positives == 0:
        raise DataError("ROC undefined: no positive (label 1) samples")
    if negatives == 0:
        raise DataError("ROC undefined: no negative (label 0) samples")

    # stable descending sort; a point closes each run of equal scores
    ranked = sorted(zip(scores, labels), key=itemgetter(0), reverse=True)
    points = [(math.inf, 0.0, 0.0)]
    tp = fp = last_tp = last_fp = area = 0
    for i, (score, label) in enumerate(ranked, 1):
        tp += label == 1
        fp += label == 0
        if i == len(ranked) or ranked[i][0] != score:
            points.append((score, fp / negatives, tp / positives))
            area += (fp - last_fp) * (tp + last_tp)  # twice the trapezoid, in pairs
            last_tp, last_fp = tp, fp

    auc = area / (2 * positives * negatives)
    return RocReport(points=points, auc=auc, positives=positives, negatives=negatives)


def pool_nodes(series_list: list[ScoreSeries]) -> RocReport:
    """Concatenate all nodes' (probability, label) pairs and compute one ROC.

    Nodes are unweighted: a node with more scored buckets contributes more
    pairs, exactly as if its rows had been appended to one big test set.
    The report's ``nodes`` holds each node's positives, negatives, scored
    buckets and own AUC (None where the node lacks a class). An empty list
    has no positives, which ``roc_curve`` refuses.
    """
    scores: list = []
    labels: list = []
    nodes = {}
    for s in series_list:
        node_scores, node_labels = _plain(s.probabilities), _plain(s.labels)
        positives, negatives = node_labels.count(1), node_labels.count(0)
        nodes[s.node_id] = {
            "auc": roc_curve(node_scores, node_labels).auc if positives and negatives else None,
            "positives": positives,
            "negatives": negatives,
            "scored": len(s),
        }
        scores.extend(node_scores)
        labels.extend(node_labels)
    pooled = roc_curve(scores, labels)
    pooled.nodes = nodes
    return pooled


def write_scores_csv(path: str | Path, series_list: list[ScoreSeries]) -> None:
    """Write pooled score rows as ``node_id,bucket_start,probability,label``."""
    lines = [csv_line(SCORE_COLUMNS)]
    for series in series_list:
        node = csv_line([series.node_id, ""])[:-2]  # the node id as quoted, and its comma
        rows = zip(
            _plain(series.bucket_starts), _plain(series.probabilities), _plain(series.labels)
        )
        lines.extend(node + ",".join(map(repr, row)) + "\r\n" for row in rows)
    write_atomic(path, "".join(lines))


def read_scores_csv(path: str | Path) -> list[ScoreSeries]:
    """Read a score CSV back into per-node series (rows grouped by node).

    Bytes that are not UTF-8, a wrong header, a line ``csv`` cannot read, a
    row without exactly four cells, a cell that does not parse, a label other
    than 0 or 1 and rows that break a ScoreSeries rule are each a DataError
    naming the file.
    """
    rows_by_node: dict[str, list[tuple[int, float, int]]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != SCORE_COLUMNS:
                raise DataError(f"{path}: expected header {','.join(SCORE_COLUMNS)}")
            for row in reader:
                try:
                    node_id, bucket, probability, label = row
                    parsed = (int(bucket), float(probability), int(label))
                except ValueError as exc:
                    line = reader.line_num
                    raise DataError(f"{path}, line {line}: bad score row ({exc})") from None
                if parsed[2] not in (0, 1):
                    raise DataError(f"{path}, line {reader.line_num}: label {label} is not 0 or 1")
                rows_by_node.setdefault(node_id, []).append(parsed)
        except UnicodeDecodeError as exc:  # the file is decoded as it is read
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None
        except csv.Error as exc:  # a field longer than csv's limit
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    series_list = []
    for node_id in sorted(rows_by_node):
        buckets, probabilities, labels = zip(*sorted(rows_by_node[node_id]))
        try:
            series_list.append(ScoreSeries(node_id, buckets, probabilities, labels))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return series_list
