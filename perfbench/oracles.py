"""Output oracles that share no code with nodewatch's data and scoring paths.

Node datasets and score files are parsed here with a plain line reader, the
AUC is recomputed as a Mann-Whitney statistic with ties counted as one half,
and the expected set of scored buckets is derived from the split ratio and
the gap-free runs of the raw data. Model property checks go through the
public ``nodewatch.models`` API only, so that a change of the on-disk store
layout does not break them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUCKET_SECONDS = 900
SCORE_HEADER = "node_id,bucket_start,probability,label"
# A row whose two nearest centroids differ by less than this relative margin
# may go either way under another summation order; it is left out of checks.
TIE_MARGIN = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class NodeData:
    """One node's dataset CSV as parsed by :func:`read_node_csv`."""

    node_id: str
    bucket_starts: np.ndarray  # int64
    labels: np.ndarray  # int64
    features: np.ndarray  # float64, (L, N)

    def __len__(self) -> int:
        return len(self.bucket_starts)


def read_node_csv(path: str | Path) -> NodeData:
    """Parse ``bucket_start,label,<features...>`` without nodewatch code."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    require(header[:2] == ["bucket_start", "label"], f"{path}: bad header")
    width = len(header)
    buckets, labels, rows = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        require(len(cells) == width, f"{path}:{number}: {len(cells)} cells, want {width}")
        buckets.append(int(cells[0]))
        labels.append(int(cells[1]))
        rows.append([float(v) for v in cells[2:]])
    return NodeData(
        node_id=path.stem,
        bucket_starts=np.array(buckets, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        features=np.array(rows, dtype=np.float64).reshape(len(rows), width - 2),
    )


def read_score_csv(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Parse ``scores/<name>.csv`` into per-node columns, in file order."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines and lines[0] == SCORE_HEADER, f"{path}: bad header")
    columns: dict[str, tuple[list, list, list]] = {}
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        require(len(cells) == 4, f"{path}:{number}: expected 4 cells")
        buckets, probs, labels = columns.setdefault(cells[0], ([], [], []))
        buckets.append(int(cells[1]))
        probs.append(float(cells[2]))
        labels.append(int(cells[3]))
    return {
        node: {
            "bucket_starts": np.array(b, dtype=np.int64),
            "probabilities": np.array(p, dtype=np.float64),
            "labels": np.array(lab, dtype=np.int64),
        }
        for node, (b, p, lab) in columns.items()
    }


# ---------------------------------------------------------------------------
# data and coverage


def check_labels_match_manifest(data: dict[str, NodeData], manifest: dict) -> None:
    """Each label is 1 exactly on the buckets of the injected intervals."""
    require(sorted(data) == sorted(manifest["nodes"]), "manifest and CSV node sets differ")
    for node_id, node in data.items():
        require(
            np.array_equal(node.bucket_starts, np.arange(len(node)) * BUCKET_SECONDS),
            f"{node_id}: generated buckets are not consecutive from 0",
        )
        expected = np.zeros(len(node), dtype=np.int64)
        for anomaly in manifest["nodes"][node_id]["anomalies"]:
            expected[anomaly["start"] : anomaly["end"]] = 1
        mismatched = int(np.sum(expected != node.labels))
        require(mismatched == 0, f"{node_id}: {mismatched} labels disagree with manifest")


def train_rows(length: int, split_ratio: float) -> int:
    return int(math.floor(split_ratio * length))


def expected_test_rows(node: NodeData, split_ratio: float, window: int) -> np.ndarray:
    """Row indices a detector with window ``window`` must score.

    The test split is the last L - floor(ratio * L) rows; a window of length
    W drops the first W - 1 buckets of every gap-free run in it.
    """
    start = train_rows(len(node), split_ratio)
    test = np.arange(start, len(node))
    if window == 1:
        return test
    gaps = np.flatnonzero(np.diff(node.bucket_starts[test]) != BUCKET_SECONDS)
    keep = []
    for lo, hi in zip(np.r_[0, gaps + 1], np.r_[gaps + 1, len(test)]):
        keep.append(test[lo + window - 1 : hi])
    return np.concatenate(keep) if keep else np.empty(0, dtype=np.int64)


def check_score_coverage(
    scores: dict[str, dict[str, np.ndarray]],
    data: dict[str, NodeData],
    split_ratio: float,
    window: int,
    name: str,
) -> None:
    """Exact test buckets, labels passed through, probabilities in [0, 1]."""
    require(sorted(scores) == sorted(data), f"{name}: scored nodes {sorted(scores)}")
    for node_id, node in data.items():
        col = scores[node_id]
        rows = expected_test_rows(node, split_ratio, window)
        require(
            np.array_equal(col["bucket_starts"], node.bucket_starts[rows]),
            f"{name}/{node_id}: scored {len(col['bucket_starts'])} buckets, "
            f"expected {len(rows)} from the test split",
        )
        require(
            np.array_equal(col["labels"], node.labels[rows]),
            f"{name}/{node_id}: labels changed between dataset and scores",
        )
        probs = col["probabilities"]
        require(
            bool(np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))),
            f"{name}/{node_id}: probabilities outside [0, 1]",
        )


# ---------------------------------------------------------------------------
# AUC


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_values) != 0) + 1]
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    for lo, hi in zip(starts, ends):
        ranks[order[lo:hi]] = (lo + 1 + hi) / 2.0
    return ranks


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, int, int]:
    """P(score of a positive > score of a negative), ties counting one half.

    Returns (auc, positives, negatives).
    """
    labels = np.asarray(labels)
    positives = int(np.sum(labels == 1))
    negatives = int(np.sum(labels == 0))
    require(positives + negatives == len(labels), "labels must be 0 or 1")
    require(positives > 0 and negatives > 0, "AUC needs both classes")
    rank_sum = float(midranks(scores)[labels == 1].sum())
    u_statistic = rank_sum - positives * (positives + 1) / 2.0
    return u_statistic / (positives * negatives), positives, negatives


def check_summary_entry(
    summary: dict, name: str, scores: dict[str, dict[str, np.ndarray]]
) -> float:
    """Recompute one method's pooled AUC and class counts; return the AUC."""
    entry = summary.get(name, {})
    require("auc" in entry, f"{name}: no AUC in summary.json ({entry})")
    pooled_p = np.concatenate([scores[n]["probabilities"] for n in sorted(scores)])
    pooled_l = np.concatenate([scores[n]["labels"] for n in sorted(scores)])
    auc, positives, negatives = mann_whitney_auc(pooled_p, pooled_l)
    require(
        abs(entry["auc"] - auc) <= 1e-12,
        f"{name}: summary AUC {entry['auc']!r} != Mann-Whitney {auc!r}",
    )
    require(
        (entry["positives"], entry["negatives"]) == (positives, negatives),
        f"{name}: class counts {entry['positives']}/{entry['negatives']} "
        f"!= {positives}/{negatives}",
    )
    require(entry["nodes_scored"] == len(scores), f"{name}: nodes_scored mismatch")
    return auc


# ---------------------------------------------------------------------------
# model properties through the public models API


def _minmax_scale(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (rows - lo) / safe, 0.0)


def _nearest(rows: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid (lowest id on exact ties) and a near-tie mask."""
    d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    if centroids.shape[0] < 2:
        return nearest, np.zeros(len(rows), dtype=bool)
    two = np.sort(d2, axis=1)[:, :2]
    near_tie = (two[:, 1] - two[:, 0]) <= TIE_MARGIN * (1.0 + two[:, 0])
    return nearest, near_tie


def check_cluster_model(model, node: NodeData, split_ratio: float, test_scores: dict) -> None:
    """CLU rates are the label rates of the training rows nearest each
    centroid, and every test row scores the rate of its nearest centroid."""
    n_train = train_rows(len(node), split_ratio)
    train = node.features[:n_train]
    lo, hi = train.min(axis=0), train.max(axis=0)
    require(
        np.array_equal(model.scaler.minimum, lo) and np.array_equal(model.scaler.maximum, hi),
        f"{node.node_id}: CLU scaler is not the training min/max",
    )
    centroids = model.kmeans.centroids
    rates = model.kmeans.cluster_anomaly_prob
    nearest, near_tie = _nearest(_minmax_scale(train, lo, hi), centroids)
    labels = node.labels[:n_train]
    unsure = set(nearest[near_tie].tolist())
    for j in range(len(centroids)):
        if j in unsure:
            continue
        members = nearest == j
        expected = float(labels[members].mean()) if members.any() else 0.0
        require(
            abs(rates[j] - expected) <= 1e-12,
            f"{node.node_id}: cluster {j} rate {rates[j]!r} != {expected!r}",
        )
    test_nearest, test_tie = _nearest(_minmax_scale(node.features[n_train:], lo, hi), centroids)
    got = test_scores["probabilities"]
    require(len(got) == len(test_nearest), f"{node.node_id}: CLU test length")
    sure = ~test_tie
    require(
        np.array_equal(got[sure], rates[test_nearest[sure]]),
        f"{node.node_id}: CLU test scores are not nearest-centroid rates",
    )


def check_neural_self_score(model, node: NodeData, split_ratio: float, name: str) -> None:
    """Scoring a model's own training rows reaches probability 1.

    The stored normaliser is the largest training reconstruction error, so
    the training window that set it must score (almost exactly) 1.
    """
    from nodewatch import NodeDataset, models

    n_train = train_rows(len(node), split_ratio)
    keep = np.arange(n_train)
    if model.regime.semi_supervised:
        keep = keep[node.labels[:n_train] == 0]
    dataset = NodeDataset(
        node_id=node.node_id,
        bucket_starts=node.bucket_starts[keep],
        features=node.features[keep],
        labels=node.labels[keep],
    )
    series = models.score_node_model(model, dataset)
    peak = float(series.probabilities.max())
    require(peak >= 1.0 - 1e-9, f"{name}/{node.node_id}: self-score peak {peak!r} < 1")


def check_loss_history(path: Path, max_epochs: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "epoch,loss", f"{path}: bad header")
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    require(1 <= len(losses) <= max_epochs, f"{path}: {len(losses)} epochs > {max_epochs}")
    require(all(math.isfinite(v) for v in losses), f"{path}: non-finite loss")
