import itertools

import numpy as np
import pytest

import oracles as orc


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize(
    "scores, labels, expected",
    [
        ([0.1, 0.9], [0, 1], 1.0),
        ([0.9, 0.1], [0, 1], 0.0),
        ([0.5, 0.5], [0, 1], 0.5),
        ([0.2, 0.5, 0.5, 0.8], [0, 1, 0, 1], 0.875),
        ([0.3, 0.3, 0.3, 0.3, 0.3], [1, 0, 0, 1, 0], 0.5),
        ([0.3, 0.3, 0.3, 0.9, 0.1], [1, 1, 0, 0, 1], 1 / 6),
    ],
)
def test_auc_on_tiny_cases_with_ties(scores, labels, expected):
    auc, positives, negatives = orc.mann_whitney_auc(np.array(scores), np.array(labels))
    assert auc == pytest.approx(expected, abs=1e-15)
    assert auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-15)
    assert (positives, negatives) == (sum(labels), len(labels) - sum(labels))


def test_auc_matches_brute_force_on_random_tied_scores():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        auc, _, _ = orc.mann_whitney_auc(scores, labels)
        assert auc == pytest.approx(brute_force_auc(scores.tolist(), labels.tolist()), abs=1e-12)


def test_auc_matches_scipy_mann_whitney_u():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1)
    scores = np.round(rng.random(500), 2)
    labels = (rng.random(500) < 0.2).astype(int)
    auc, positives, negatives = orc.mann_whitney_auc(scores, labels)
    u = stats.mannwhitneyu(scores[labels == 1], scores[labels == 0]).statistic
    assert auc == pytest.approx(u / (positives * negatives), abs=1e-12)


def test_auc_needs_both_classes():
    with pytest.raises(orc.CheckFailed):
        orc.mann_whitney_auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_expected_test_rows_drop_window_history_per_gap_free_run():
    # 10 rows, split 0.8 -> rows 8, 9 are test; add a longer example with a gap
    buckets = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21, 22, 23, 24, 25, 26, 27]) * 900
    node = orc.NodeData("n", buckets, np.zeros(20, dtype=np.int64), np.zeros((20, 1)))
    # test split = rows 16..19 (floor(0.8 * 20) = 16), one run
    assert orc.expected_test_rows(node, 0.8, 1).tolist() == [16, 17, 18, 19]
    assert orc.expected_test_rows(node, 0.8, 3).tolist() == [18, 19]
    # split 0.5: test rows 10..19 hold a gap between rows 11 and 12
    assert orc.expected_test_rows(node, 0.5, 2).tolist() == [11, 13, 14, 15, 16, 17, 18, 19]
    assert orc.expected_test_rows(node, 0.5, 3).tolist() == [14, 15, 16, 17, 18, 19]


def test_node_csv_reader_round_trips(tmp_path):
    path = tmp_path / "node_007.csv"
    path.write_text("bucket_start,label,a,b\n0,0,0.1,2.5\n900,1,-3.0,1e-05\n")
    node = orc.read_node_csv(path)
    assert node.node_id == "node_007"
    assert node.bucket_starts.tolist() == [0, 900]
    assert node.labels.tolist() == [0, 1]
    assert node.features.tolist() == [[0.1, 2.5], [-3.0, 1e-05]]
