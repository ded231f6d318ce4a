import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nodewatch.baselines as bl
from nodewatch.baselines import (
    KMEANS_RESTARTS,
    KMeansModel,
    assign_clusters,
    cluster_anomaly_probabilities,
    exp_smoothing_scores,
    kmeans_fit,
    kmeans_score,
    select_k,
    silhouette,
    _lloyd,
    _pairwise_distances,
    _plus_plus_seeds,
    _row_norms,
    _squared_distances,
)
from nodewatch.errors import DataError

from conftest import build_dataset


def distances(data):
    """The Euclidean distance matrix ``select_k`` hands to ``silhouette``."""
    data = np.asarray(data, dtype=float)
    return _pairwise_distances(data, data)


def blob_rows(rng, centers, per_blob=20, spread=0.05):
    rows = []
    for c in centers:
        rows.append(np.asarray(c) + rng.normal(scale=spread, size=(per_blob, len(c))))
    return np.concatenate(rows)


class TestExponentialSmoothing:
    def test_constant_series_scores_zero(self):
        ds = build_dataset([0] * 3, features=[[1.0, 1.0]] * 3)
        series = exp_smoothing_scores(ds, 0.1)
        npt.assert_array_equal(series.probabilities, 0.0)

    def test_alpha_one_collapses_to_previous_value(self, rng):
        rows = rng.uniform(size=(6, 2))
        ds = build_dataset([0] * 6, features=rows)
        series = exp_smoothing_scores(ds, 1.0)
        raw = np.zeros(6)
        for t in range(1, 6):
            raw[t] = np.abs(rows[t] - rows[t - 1]).sum()
        expected = raw / raw.max()
        npt.assert_allclose(series.probabilities, expected)

    def test_hand_evaluated_recursion_step(self):
        # one feature, segment [0, 1]: estimate starts at 0, prediction for
        # t1 is still 0, so the raw error is |0 - 1| = 1
        ds = build_dataset([0, 0], features=[[0.0], [1.0]])
        series = exp_smoothing_scores(ds, 0.1)
        npt.assert_allclose(series.probabilities, [0.0, 1.0])

    def test_prediction_uses_pre_update_estimate(self):
        # alpha=0.5 over [0, 1, 1]: estimates 0, 0.5; raw errors 0, 1, 0.5
        ds = build_dataset([0] * 3, features=[[0.0], [1.0], [1.0]])
        series = exp_smoothing_scores(ds, 0.5)
        npt.assert_allclose(series.probabilities, [0.0, 1.0, 0.5])

    def test_each_segment_restarts_the_estimate(self):
        ds = build_dataset(
            [0] * 4,
            features=[[0.0], [1.0], [5.0], [5.0]],
            bucket_starts=[0, 900, 3600, 4500],  # gap between rows 1 and 2
        )
        series = exp_smoothing_scores(ds, 0.1)
        # second segment starts fresh at 5.0: scores 0 at both segment heads
        assert series.probabilities[0] == 0.0
        assert series.probabilities[2] == 0.0
        assert series.probabilities[1] == 1.0  # the only nonzero raw error

    def test_empty_series_allowed(self):
        ds = build_dataset([0], features=[[1.0]])
        out = exp_smoothing_scores(ds.take(np.array([], dtype=int)), 0.1)
        assert len(out) == 0


class TestSilhouette:
    def hand_silhouette(self, data, assignment):
        data = np.asarray(data, dtype=float)
        values = []
        for i, row in enumerate(data):
            own = [j for j in range(len(data)) if assignment[j] == assignment[i] and j != i]
            if not own:
                values.append(0.0)
                continue
            a = np.mean([np.linalg.norm(row - data[j]) for j in own])
            b = min(
                np.mean(
                    [np.linalg.norm(row - data[j]) for j in range(len(data)) if assignment[j] == cid]
                )
                for cid in set(assignment)
                if cid != assignment[i]
            )
            values.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
        return float(np.mean(values))

    def test_two_tight_pairs(self):
        data = np.array([[0.0], [0.1], [10.0], [10.1]])
        assignment = np.array([0, 0, 1, 1])
        expected = self.hand_silhouette(data, assignment)
        got = silhouette(distances(data), assignment)
        npt.assert_allclose(got, expected, atol=1e-12)
        npt.assert_allclose(got, 0.98999975, atol=1e-7)

    def test_duplicated_points_give_one(self):
        data = np.array([[0.0], [0.0], [9.0], [9.0]])
        assert silhouette(distances(data), np.array([0, 0, 1, 1])) == 1.0

    def test_all_identical_points_give_zero(self):
        data = np.zeros((4, 2))
        assert silhouette(distances(data), np.array([0, 0, 1, 1])) == 0.0

    def test_range_and_label_permutation_invariance(self, rng):
        data = rng.normal(size=(30, 3))
        assignment = rng.integers(0, 3, size=30)
        assignment[:3] = [0, 1, 2]
        value = silhouette(distances(data), assignment)
        assert -1.0 <= value <= 1.0
        relabeled = (assignment + 1) % 3
        npt.assert_allclose(silhouette(distances(data), relabeled), value, atol=1e-12)

    def test_singletons_contribute_zero(self):
        data = np.array([[0.0], [0.1], [50.0]])
        with_singleton = silhouette(distances(data), np.array([0, 0, 1]))
        expected = self.hand_silhouette(data, [0, 0, 1])
        npt.assert_allclose(with_singleton, expected)

    # integer coordinates keep every distance exact under both formulas, so
    # only the summation order differs; duplicates give the 0/0 case
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3)),
            min_size=2,
            max_size=24,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_sample_definition(self, points):
        data = np.array([p[:2] for p in points], dtype=float)
        assignment = np.array([p[2] for p in points])
        assume(len(set(assignment.tolist())) >= 2)
        expected = self.hand_silhouette(data, assignment)
        npt.assert_allclose(silhouette(distances(data), assignment), expected, rtol=0, atol=1e-12)


class TestKMeans:
    def brute_force_best_two_partition(self, rows):
        best = None
        n = len(rows)
        for mask_bits in range(1, 2 ** (n - 1)):  # fix point 0 in cluster 0
            mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
            wcss = 0.0
            for side in (mask, ~mask):
                if side.any():
                    c = rows[side].mean(axis=0)
                    wcss += float(np.sum((rows[side] - c) ** 2))
            if best is None or wcss < best[0]:
                best = (wcss, mask)
        return best

    def test_two_blobs_match_brute_force(self):
        rows = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2], [9.9], [0.05]])
        centroids = kmeans_fit(rows, 2, seed=0)
        assignment = assign_clusters(rows, centroids)
        ours = sum(
            float(np.sum((rows[assignment == j] - centroids[j]) ** 2)) for j in range(2)
        )
        best_wcss, _ = self.brute_force_best_two_partition(rows)
        npt.assert_allclose(ours, best_wcss, rtol=1e-12)
        npt.assert_allclose(sorted(centroids.ravel()), [0.0875, 10.05])

    def test_k_one_is_global_mean(self, rng):
        rows = rng.normal(size=(25, 3))
        centroids = kmeans_fit(rows, 1, seed=4)
        npt.assert_allclose(centroids[0], rows.mean(axis=0), atol=1e-12)

    def test_k_equal_to_distinct_rows_has_zero_wcss(self):
        rows = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
        centroids = kmeans_fit(rows, 3, seed=1)
        assignment = assign_clusters(rows, centroids)
        wcss = np.sum((rows - centroids[assignment]) ** 2)
        assert wcss == 0.0

    def test_deterministic_under_seed(self, rng):
        rows = rng.normal(size=(40, 2))
        npt.assert_array_equal(kmeans_fit(rows, 3, seed=7), kmeans_fit(rows, 3, seed=7))

    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_lloyd_matches_per_cluster_loop_bit_for_bit(self, width, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(size=(300, width)) ** 3
        # duplicate seeds: ties go to the lowest id, so clusters 1 and 3
        # start empty while 2 and 4 between and after them hold members
        seeds = rows[[0, 0, 7, 7, 11]]
        assert set(assign_clusters(rows, seeds).tolist()) == {0, 2, 4}
        got = _lloyd(rows, seeds[None])
        want = reference_lloyd(rows, seeds)
        npt.assert_array_equal(got[0][0], want[0])
        npt.assert_array_equal(got[1][0], want[1])
        assert got[2] == [want[2]]

    def test_wcss_non_increasing_within_lloyd(self, rng):
        rows = rng.normal(size=(60, 2))
        seeds = _plus_plus_seeds(rows, 4, np.random.default_rng(0))
        at_seeds = np.sum((rows - seeds[assign_clusters(rows, seeds)]) ** 2)
        _, _, wcss = _lloyd(rows, seeds[None])
        assert wcss[0] <= at_seeds + 1e-12

    @pytest.mark.parametrize("n", [2, 45, 700, 5000])
    @pytest.mark.parametrize("width", [1, 3, 8, 64])
    def test_centroids_are_member_means_within_the_summation_bound(self, width, n):
        # any order of summing m values errs by at most (m - 1) eps sum|x|;
        # mixed magnitudes make the last bits of the sums order-dependent
        rng = np.random.default_rng(width * n)
        rows = rng.uniform(size=(n, width)) ** 3 * 10.0 ** rng.integers(-3, 4, size=(n, width))
        seeds = np.stack([_plus_plus_seeds(rows, min(n, 4), rng) for _ in range(3)])
        centroids, assignment, _ = _lloyd(rows, seeds)
        eps = np.finfo(float).eps
        for own, labels in zip(centroids, assignment):
            for j, centroid in enumerate(own):
                members = rows[labels == j]
                count = len(members)
                assert count > 0
                exact = np.array([math.fsum(col) / count for col in members.T])
                bound = (count - 1) * eps * np.abs(members).sum(axis=0) / count
                assert np.all(np.abs(centroid - exact) <= bound)


def reference_lloyd(rows, seeds):
    """Lloyd's algorithm on one restart. The cluster sums are the restart's
    own one-hot membership product with the rows; empty clusters are
    re-seeded on the worst-fit point one at a time, as they come up. Also
    returns the iteration that converged (None when the iteration cap
    stopped it)."""
    centroids = seeds.copy()
    k = len(centroids)
    assignment = assign_clusters(rows, centroids)
    converged_at = None
    for iteration in range(bl.KMEANS_MAX_ITER):
        onehot = (assignment == np.arange(k)[:, None]).astype(float)
        counts = onehot.sum(axis=1)
        means = (onehot @ rows) / np.maximum(counts, 1)[:, None]
        for j in range(k):
            if counts[j]:
                centroids[j] = means[j]
            else:
                far = np.argmax(np.sum((rows - centroids[assignment]) ** 2, axis=1))
                centroids[j] = rows[far]
        new_assignment = assign_clusters(rows, centroids)
        if np.array_equal(new_assignment, assignment):
            converged_at = iteration
            break
        assignment = new_assignment
    wcss = float(np.sum((rows - centroids[assignment]) ** 2))
    return centroids, assignment, wcss, converged_at


def reference_plus_plus_seeds(rows, k, rng):
    """k-means++ seeding that also updates the nearest-seed distances after
    the last draw, which nothing reads."""
    centroids = np.empty((k, rows.shape[1]))
    centroids[0] = rows[rng.integers(len(rows))]
    closest_sq = np.sum((rows - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total == 0:
            centroids[j] = rows[rng.integers(len(rows))]
        else:
            centroids[j] = rows[rng.choice(len(rows), p=closest_sq / total)]
        closest_sq = np.minimum(closest_sq, np.sum((rows - centroids[j]) ** 2, axis=1))
    return centroids


class TestPlusPlusSeeds:
    # three distinct rows: from the fourth seed on every row sits on a seed,
    # the distances sum to 0 and the draws are uniform
    @pytest.mark.parametrize("distinct", [640, 3])
    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_seeds_and_generator_state_match_a_final_update(self, k, distinct):
        data = np.random.default_rng(2).uniform(size=(distinct, 32))
        rows = data[np.arange(640) % distinct]
        got, want = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(KMEANS_RESTARTS):
            npt.assert_array_equal(
                _plus_plus_seeds(rows, k, got), reference_plus_plus_seeds(rows, k, want)
            )
        assert got.random() == want.random()


def reference_kmeans_fit(rows, k, seed):
    """Best of the restarts, each run on its own; the first lowest WCSS wins."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids, _, wcss, _ = reference_lloyd(rows, _plus_plus_seeds(rows, k, rng))
        if best is None or wcss < best[0]:
            best = (wcss, centroids)
    return best[1]


def assert_batch_matches_reference(rows, stack):
    centroids, assignment, wcss = _lloyd(rows, stack)
    want = [reference_lloyd(rows, seeds) for seeds in stack]
    for r, (c, a, w, _) in enumerate(want):
        npt.assert_array_equal(centroids[r], c)
        npt.assert_array_equal(assignment[r], a)
        assert wcss[r] == w
    return [w[3] for w in want]


class TestStackedLloyd:
    """Restarts run as one batch give each restart its own run's bits."""

    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_batch_matches_reference(self, width, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(size=(300, width)) ** 3
        # restart 0 starts with empty clusters; the others are k-means++ draws
        stack = np.stack(
            [rows[[0, 0, 7, 7, 11]]] + [_plus_plus_seeds(rows, 5, rng) for _ in range(5)]
        )
        assert len(set(assign_clusters(rows, stack[0]).tolist())) < 5
        assert all(len(set(assign_clusters(rows, s).tolist())) == 5 for s in stack[1:])
        converged_at = assert_batch_matches_reference(rows, stack)
        assert None not in converged_at and len(set(converged_at)) > 1

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_one_restart_stops_at_the_iteration_cap(self, monkeypatch, width):
        monkeypatch.setattr(bl, "KMEANS_MAX_ITER", 2)
        rng = np.random.default_rng(5)
        rows = rng.uniform(size=(300, width)) ** 3
        spread = _plus_plus_seeds(rows, 6, rng)
        # seeded at its own fixed point, the first restart converges at once
        with monkeypatch.context() as uncapped:
            uncapped.setattr(bl, "KMEANS_MAX_ITER", 300)
            fixed = reference_lloyd(rows, spread)[0]
        stack = np.stack([fixed, spread, rows[[0, 0, 7, 7, 11, 11]]])
        converged_at = assert_batch_matches_reference(rows, stack)
        assert converged_at[0] == 0 and converged_at[1] is None

    @pytest.mark.parametrize("shape", [(640, 32), (4800, 64)])
    def test_stacked_distances_have_each_restarts_bits(self, shape):
        """Lloyd's squared distances to a stack of centroid sets are each
        set's own; with distinct centroids their argmin is
        ``assign_clusters``'. Two equal centroids may differ by an ulp in
        the squared value, by their column in the product, where the root
        makes them tie."""
        rng = np.random.default_rng(11)
        rows = rng.uniform(size=shape)
        for k in (1, 2, 7, 10):
            row_sq = np.repeat(_row_norms(rows)[:, None], k, axis=1)
            picks = [rng.choice(len(rows), size=k, replace=False) for _ in range(KMEANS_RESTARTS)]
            stack = rows[np.stack(picks)]
            sq = _squared_distances(rows, row_sq, stack)
            for seeds, own in zip(stack, sq):
                npt.assert_array_equal(own, _squared_distances(rows, row_sq, seeds[None])[0])
                npt.assert_array_equal(own.argmin(axis=1), assign_clusters(rows, seeds))

    @pytest.mark.parametrize("shape", [(640, 32), (4800, 64)])
    @pytest.mark.parametrize("k", [2, 7, 10])
    def test_plus_plus_seeded_batch_matches_the_root_rule(self, shape, k):
        """At the benchmark's and the paper's row shapes, Lloyd steps that
        take the argmin of squared distances give the bits of
        ``reference_lloyd``, whose steps take it over the roots of
        ``_pairwise_distances``. Skewed rows keep each restart going for
        tens of steps (up to ~110 at 4800 rows)."""
        rng = np.random.default_rng(k)
        rows = rng.uniform(size=shape) ** 3
        stack = np.stack([_plus_plus_seeds(rows, k, rng) for _ in range(3)])
        assert None not in assert_batch_matches_reference(rows, stack)

    # one batch of ten restarts, batches of 12 // k (the last one short),
    # and one restart per batch
    @pytest.mark.parametrize("cells", [1 << 16, 1440, 1])
    @pytest.mark.parametrize("width", [1, 8])
    def test_kmeans_fit_matches_per_restart_reference(self, monkeypatch, width, cells):
        monkeypatch.setattr(bl, "LLOYD_BATCH_CELLS", cells)
        rng = np.random.default_rng(3)
        # tight blobs: many restarts tie on WCSS with their clusters in another order
        rows = blob_rows(rng, rng.uniform(-5, 5, size=(4, width)), per_blob=30, spread=0.3)
        for k in range(1, 7):
            npt.assert_array_equal(kmeans_fit(rows, k, seed=k), reference_kmeans_fit(rows, k, k))

    def test_select_k_matches_per_restart_reference(self, monkeypatch):
        rng = np.random.default_rng(4)
        rows = blob_rows(rng, [[0, 0, 0], [4, 4, 0], [0, 4, 4]], per_blob=40, spread=0.8)
        monkeypatch.setattr(bl, "K_RANGE", range(2, 7))
        k, centroids = select_k(rows, seed=9)
        monkeypatch.setattr(bl, "kmeans_fit", lambda r, k, seed: reference_kmeans_fit(r, k, seed))
        want_k, want_centroids = bl.select_k(rows, seed=9)
        assert k == want_k
        npt.assert_array_equal(centroids, want_centroids)


class TestSelectK:
    @pytest.fixture(autouse=True)
    def k_range(self, monkeypatch):
        monkeypatch.setattr(bl, "K_RANGE", range(2, 6))

    def test_two_blobs(self, rng):
        rows = blob_rows(rng, [[0, 0], [8, 8]])
        k, centroids = select_k(rows, seed=0)
        assert k == 2
        # the winner's centroids are exactly what a fresh fit at that k gives
        npt.assert_array_equal(centroids, kmeans_fit(rows, 2, seed=0))

    def test_three_blobs(self, rng):
        rows = blob_rows(rng, [[0, 0], [8, 8], [-8, 8]])
        k, centroids = select_k(rows, seed=0)
        assert k == 3 and centroids.shape == (3, 2)

    def test_no_feasible_k_errors(self):
        rows = np.array([[1.0], [1.0]])
        with pytest.raises(DataError, match="no feasible k"):
            select_k(rows, seed=0)

    def test_ties_break_toward_smaller_k(self, monkeypatch):
        # force identical silhouette for every candidate k
        monkeypatch.setattr(bl, "silhouette", lambda d, a: 0.5)
        rng = np.random.default_rng(0)
        rows = blob_rows(rng, [[0, 0], [8, 8], [-8, 8]])
        assert bl.select_k(rows, seed=0)[0] == 2


class TestClusterProbabilities:
    def test_half_anomalous_cluster(self):
        probs = cluster_anomaly_probabilities(
            np.array([0, 0, 0, 0]), np.array([0, 0, 1, 1]), k=1
        )
        npt.assert_allclose(probs, [0.5])

    def test_all_clean_gives_zero(self):
        probs = cluster_anomaly_probabilities(
            np.array([0, 1, 0, 1]), np.zeros(4, dtype=int), k=2
        )
        npt.assert_array_equal(probs, [0.0, 0.0])

    def test_singleton_anomalous_cluster(self):
        probs = cluster_anomaly_probabilities(np.array([0]), np.array([1]), k=2)
        npt.assert_array_equal(probs, [1.0, 0.0])  # empty cluster stays 0

    def test_weighted_mean_recovers_base_rate(self, rng):
        assignment = rng.integers(0, 4, size=200)
        labels = rng.integers(0, 2, size=200)
        probs = cluster_anomaly_probabilities(assignment, labels, k=4)
        sizes = np.bincount(assignment, minlength=4)
        npt.assert_allclose((probs * sizes).sum() / 200.0, labels.mean())


class TestKMeansScore:
    def model(self):
        return KMeansModel(
            centroids=np.array([[0.0, 0.0], [4.0, 0.0]]),
            cluster_anomaly_prob=np.array([0.2, 0.9]),
            seed=0,
        )

    def test_exact_centroid_hit(self):
        npt.assert_allclose(kmeans_score(self.model(), np.array([[0.0, 0.0]])), [0.2])

    def test_equidistant_row_takes_lowest_id(self):
        npt.assert_allclose(kmeans_score(self.model(), np.array([[2.0, 0.0]])), [0.2])

    def test_far_outlier_still_maps_to_nearest(self):
        # by hand: distance to (4,0) is smaller than to (0,0)
        row = np.array([100.0, 50.0])
        assert np.linalg.norm(row - [4, 0]) < np.linalg.norm(row - [0, 0])
        npt.assert_allclose(kmeans_score(self.model(), row[None]), [0.9])

    def test_row_whose_distances_are_inf_minus_inf_takes_the_lowest_id(self):
        # the row's squared norm overflows, and so does twice its product with
        # the centroid at 0.9: inf - inf, which counts as inf like the others
        model = KMeansModel(
            centroids=np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.2]]),
            cluster_anomaly_prob=np.array([0.1, 0.5, 0.9]),
            seed=0,
        )
        npt.assert_array_equal(kmeans_score(model, np.array([[1e308, 0.5]])), [0.1])

    def test_output_is_always_a_model_probability(self, rng):
        model = self.model()
        scores = kmeans_score(model, rng.normal(size=(50, 2)) * 10)
        assert set(np.unique(scores)) <= set(model.cluster_anomaly_prob.tolist())

    @pytest.mark.parametrize("rate", [-0.1, 1.5, np.nan])
    def test_rate_outside_unit_range_rejected(self, rate):
        with pytest.raises(DataError, match=r"lie in \[0, 1\]"):
            KMeansModel(centroids=[[0.0]], cluster_anomaly_prob=[rate], seed=0)

