import csv
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from nodewatch.baselines import anomaly_probability
from nodewatch.errors import DataError
from nodewatch.scoring import (
    SCORE_COLUMNS,
    RocReport,
    ScoreSeries,
    pool_nodes,
    read_scores_csv,
    roc_curve,
    write_scores_csv,
)


def mann_whitney_auc(scores, labels):
    """Pairwise oracle: P(score_pos > score_neg), ties counted one half,
    computed exactly and rounded once to the nearest float."""
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return float(Fraction(2 * wins + ties, 2 * len(pos) * len(neg)))


def numpy_roc(scores, labels):
    """The array formulation of the exact ROC points, kept as the oracle for
    the plain-Python sweep: (n, 3) points from the sentinel down."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    group_ends = np.concatenate((np.flatnonzero(np.diff(sorted_scores) != 0), [len(scores) - 1]))
    points = np.empty((len(group_ends) + 1, 3))
    points[0] = (np.inf, 0.0, 0.0)
    points[1:, 0] = sorted_scores[group_ends]
    points[1:, 1] = np.cumsum(sorted_labels == 0)[group_ends] / (labels == 0).sum()
    points[1:, 2] = np.cumsum(sorted_labels == 1)[group_ends] / (labels == 1).sum()
    return points


def series(node_id, probs, labels):
    n = len(probs)
    return ScoreSeries(
        node_id=node_id,
        bucket_starts=np.arange(n) * 900,
        probabilities=np.asarray(probs, dtype=float),
        labels=np.asarray(labels),
    )


class TestErrorChain:
    def test_probability_clamp(self):
        errors = np.array([1.3, 0.4, 0.0, 1.0])
        npt.assert_array_equal(anomaly_probability(errors), [1.0, 0.4, 0.0, 1.0])

    def test_probability_monotone_with_unit_range(self, rng):
        xs = np.sort(rng.uniform(0, 3, size=50))
        ps = anomaly_probability(xs)
        assert np.all(np.diff(ps) >= 0)
        assert ps.min() >= 0.0 and ps.max() <= 1.0
        # the clamp leaves every error below 1 bit for bit, as the scalar rule did
        npt.assert_array_equal(ps, [1.0 if x >= 1.0 else x for x in xs])


class TestRocCurve:
    def test_perfect_separation(self):
        report = roc_curve(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert report.auc == 1.0

    def test_mixed_case_against_pairwise_count(self):
        scores = np.array([0.9, 0.1, 0.8, 0.2])
        labels = np.array([1, 0, 0, 1])
        report = roc_curve(scores, labels)
        npt.assert_allclose(report.auc, 0.75)
        npt.assert_allclose(report.auc, mann_whitney_auc(scores, labels))

    def test_total_tie_is_chance(self):
        report = roc_curve(np.full(10, 0.5), np.array([1, 0] * 5))
        npt.assert_allclose(report.auc, 0.5)

    def test_single_class_errors_name_the_missing_class(self):
        with pytest.raises(DataError, match="no negative"):
            roc_curve(np.array([0.1, 0.2]), np.array([1, 1]))
        with pytest.raises(DataError, match="no positive"):
            roc_curve(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_curve_shape_invariants(self, rng):
        scores = np.round(rng.random(100), 1)  # heavy ties
        labels = rng.integers(0, 2, size=100)
        labels[:2] = [0, 1]
        points = np.array(roc_curve(scores, labels).points)
        assert points.shape == (len(np.unique(scores)) + 1, 3)
        thresholds, fpr, tpr = points.T
        assert np.array_equal(points[0], [math.inf, 0.0, 0.0])
        assert np.array_equal(points[-1, 1:], [1.0, 1.0])
        assert np.array_equal(thresholds, np.sort(thresholds)[::-1])
        assert np.array_equal(fpr, np.sort(fpr)) and np.array_equal(tpr, np.sort(tpr))

    def test_points_match_per_threshold_counts(self, rng):
        scores = np.round(rng.random(60), 1)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        report = roc_curve(scores, labels)
        expected = [(math.inf, 0.0, 0.0)]
        for t in sorted(set(scores.tolist()), reverse=True):
            flagged = scores >= t
            expected.append(
                (t, flagged[labels == 0].sum() / (labels == 0).sum(),
                 flagged[labels == 1].sum() / (labels == 1).sum())
            )
        assert np.array_equal(report.points, expected)

    def test_matches_mann_whitney_on_random_instances(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), int(rng.integers(1, 3)))
            report = roc_curve(scores, labels)
            assert report.auc == mann_whitney_auc(scores, labels)

    def test_matches_numpy_formulation_bit_for_bit(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 3000))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            # few distinct values: long tie groups, as clamped probabilities give
            scores = np.minimum(np.round(rng.random(n) * 1.3, int(rng.integers(1, 4))), 1.0)
            report = roc_curve(scores, labels)
            assert report.auc == mann_whitney_auc(scores, labels)
            assert np.array_equal(np.array(report.points), numpy_roc(scores, labels))
            assert report.positives == (labels == 1).sum() and report.negatives == (labels == 0).sum()

    def test_auc_invariant_under_increasing_transform(self, rng):
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        base = roc_curve(scores, labels).auc
        npt.assert_allclose(roc_curve(np.exp(scores), labels).auc, base, atol=1e-12)
        npt.assert_allclose(roc_curve(scores * 3 + 1, labels).auc, base, atol=1e-12)


class TestPooling:
    def test_pooling_with_itself_keeps_auc(self, rng):
        s = series("n1", rng.random(50), np.r_[np.ones(5, int), np.zeros(45, int)])
        single = roc_curve(s.probabilities, s.labels).auc
        npt.assert_allclose(pool_nodes([s, s]).auc, single)

    def test_two_single_class_nodes_pool_into_a_valid_report(self):
        only_pos = series("p", [0.9, 0.8], [1, 1])
        only_neg = series("n", [0.1, 0.2], [0, 0])
        report = pool_nodes([only_pos, only_neg])
        assert report.positives == 2 and report.negatives == 2
        assert report.auc == 1.0

    def test_three_node_fixture_matches_pairwise_oracle(self, rng):
        # the pooled AUC and every node's own equal the exact ratio, rounded once
        for _ in range(100):
            nodes = []
            all_scores, all_labels = [], []
            for i in range(3):
                n = int(rng.integers(5, 30))
                probs = np.round(rng.random(n), 1)
                labels = rng.integers(0, 2, size=n)
                nodes.append(series(f"n{i}", probs, labels))
                all_scores.extend(probs)
                all_labels.extend(labels)
            report = pool_nodes(nodes)
            assert report.auc == mann_whitney_auc(all_scores, all_labels)
            for node in nodes:
                has_both = 0 < node.labels.sum() < len(node)
                want = mann_whitney_auc(node.probabilities, node.labels) if has_both else None
                assert report.nodes[node.node_id]["auc"] == want

    def test_pooling_is_permutation_invariant(self, rng):
        nodes = [
            series(f"n{i}", rng.random(10), rng.integers(0, 2, size=10))
            for i in range(4)
        ]
        base = pool_nodes(nodes)
        shuffled = pool_nodes(nodes[::-1])
        assert base.auc == shuffled.auc
        assert np.array_equal(base.points, shuffled.points)

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            pool_nodes([])


class TestScoreSeriesAndFiles:
    def test_probabilities_outside_unit_interval_rejected(self):
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            series("n", [1.2], [0])

    def test_score_csv_round_trip(self, tmp_path, rng):
        nodes = [
            series("node_a", np.round(rng.random(5), 6), rng.integers(0, 2, size=5)),
            series("node_b", np.round(rng.random(3), 6), rng.integers(0, 2, size=3)),
        ]
        path = tmp_path / "scores.csv"
        write_scores_csv(path, nodes)
        back = read_scores_csv(path)
        assert [s.node_id for s in back] == ["node_a", "node_b"]
        for got, want in zip(back, nodes):
            npt.assert_array_equal(got.bucket_starts, want.bucket_starts)
            npt.assert_array_equal(got.probabilities, want.probabilities)
            npt.assert_array_equal(got.labels, want.labels)

    def test_roc_report_dict_shape(self):
        report = roc_curve(np.array([0.9, 0.1]), np.array([1, 0]))
        assert report.to_dict() == {"auc": 1.0, "positives": 1, "negatives": 1, "nodes": {}}
        pooled = pool_nodes([
            series("a", [0.9, 0.1, 0.5], [1, 0, 0]),
            series("b", [0.3, 0.2], [0, 0]),
        ])
        assert pooled.to_dict() == {
            "auc": 1.0,
            "positives": 1,
            "negatives": 4,
            "nodes": {
                "a": {"auc": 1.0, "positives": 1, "negatives": 2, "scored": 3},
                "b": {"auc": None, "positives": 0, "negatives": 2, "scored": 2},
            },
        }


def csv_writer_bytes(path, header, rows):
    """What the writers produced with ``csv.writer`` and one repr per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestWritersMatchCsvWriter:
    def test_scores_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        nodes = [
            series("node_a", rng.random(6), rng.integers(0, 2, size=6)),
            series('odd,"id"', [0.0, 1.0, 1e-300, 0.1], [0, 1, 0, 1]),
        ]
        write_scores_csv(tmp_path / "got.csv", nodes)
        rows = [
            [s.node_id, int(b), repr(float(p)), int(y)]
            for s in nodes
            for b, p, y in zip(s.bucket_starts, s.probabilities, s.labels)
        ]
        want = csv_writer_bytes(tmp_path / "want.csv", SCORE_COLUMNS, rows)
        assert (tmp_path / "got.csv").read_bytes() == want

    def test_roc_points_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        report = roc_curve(rng.random(50).round(2), rng.integers(0, 2, size=50))
        report.write_points_csv(tmp_path / "got.csv")
        rows = [[repr(float(v)) for v in point] for point in report.points]
        want = csv_writer_bytes(tmp_path / "want.csv", ["threshold", "fpr", "tpr"], rows)
        assert (tmp_path / "got.csv").read_bytes() == want
