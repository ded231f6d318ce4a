"""Non-neural detectors: exponential smoothing and k-means clustering with
silhouette-selected k.

The smoothing detector scores each timestep by how far it lands from the
running per-feature estimate, so it only ever reacts to jumps. The
clustering detector assigns each test row the anomaly rate its nearest
training cluster exhibited — the one place labels enter an otherwise
unsupervised method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .pipeline import time_consistency_segments
from .scoring import ScoreSeries
from .telemetry import NodeDataset

EXP_ALPHA = 0.1  # the smoothing factor EXP scores with: the weight of the newest value

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10
# restarts that run as one Lloyd batch hold at most this many row-centroid
# distances: 640 rows x 10 clusters x 10 restarts fit, while at 3840 rows
# x 9 clusters a stack of 10 made each elementwise pass slower than the
# calls it saved
LLOYD_BATCH_CELLS = 1 << 16
SILHOUETTE_SAMPLE_CAP = 2000
K_RANGE = range(2, 11)  # the cluster counts select_k tries


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (k, N)
    cluster_anomaly_prob: np.ndarray  # (k,)
    seed: int

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.cluster_anomaly_prob = np.asarray(self.cluster_anomaly_prob, dtype=np.float64)
        if self.centroids.ndim != 2 or not len(self.centroids):
            raise DataError(f"centroids have shape {self.centroids.shape}, not (k, N) with k >= 1")
        k = len(self.centroids)
        if self.cluster_anomaly_prob.shape != (k,):
            raise DataError(
                f"cluster anomaly probabilities have shape "
                f"{self.cluster_anomaly_prob.shape}, not (k={k},)"
            )
        if not np.all(np.isfinite(self.centroids)):
            raise DataError("centroids must be finite")
        # written so that NaN, which fails every comparison, fails it too
        if not np.all((self.cluster_anomaly_prob >= 0) & (self.cluster_anomaly_prob <= 1)):
            raise DataError("cluster anomaly probabilities must lie in [0, 1]")


# ---------------------------------------------------------------------------
# exponential smoothing


def anomaly_probability(normalized_errors: np.ndarray) -> np.ndarray:
    """Clamp normalized errors at 1 to form probabilities.

    The last link of every error-based detector's chain: an error (L1 for
    the autoencoders, the smoothing deviation for EXP) divided by its
    normalizer, then clamped to [0, 1]. Both callers divide errors that are
    >= 0, so nothing below 0 arrives.
    """
    return np.minimum(normalized_errors, 1.0)


def exp_smoothing_scores(series: NodeDataset, alpha: float) -> ScoreSeries:
    """Score a (scaled) series by deviation from its exponential estimate.

    Within each gap-free segment the estimate starts at the first actual
    value, and the prediction for time t is the estimate built from values
    through t-1 only. Raw errors (summed per-feature absolute deviations)
    are normalized by the largest finite error over the whole scored series;
    the first point of every segment scores 0. The scaled values are finite
    (``apply_minmax`` refuses one that overflows), but a deviation sum of
    finite values can still overflow: that error is inf and scores 1, with
    no warning, as an autoencoder's overflowing error does.
    """
    raw = np.zeros(len(series))
    with np.errstate(over="ignore", invalid="ignore"):
        for run in time_consistency_segments(series):
            rows = series.features[run]
            estimate = rows[0]
            for t in range(1, len(rows)):
                raw[run.start + t] = np.abs(estimate - rows[t]).sum()
                estimate = alpha * rows[t] + (1.0 - alpha) * estimate
        peak = raw.max(initial=0.0, where=np.isfinite(raw))
        return ScoreSeries(
            node_id=series.node_id,
            bucket_starts=series.bucket_starts,
            probabilities=anomaly_probability(raw / peak if peak > 0 else raw),
            labels=series.labels,
        )


# ---------------------------------------------------------------------------
# clustering


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row (along the last axis)."""
    return np.sum(a * a, axis=-1)


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between row sets a (M, N) and b (K, N)."""
    # (a_sq + b_sq) - 2 ab, built in place
    sq = _row_norms(a)[:, None] + _row_norms(b)
    prod = a @ b.T
    prod *= 2.0
    sq -= prod
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def _squared_distances(rows: np.ndarray, row_sq: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Squared distances (R, n, k), unclamped, of ``rows`` (n, N) to each
    centroid set of ``stack`` (R, k, N): the values that
    ``_pairwise_distances`` clamps and roots, since moving its factor 2 onto
    the centroids is exact short of underflow. The product is one batched
    matmul, which multiplies each set as a product of its own, so each set
    gets the bits it gets alone. ``row_sq`` is ``_row_norms(rows)`` repeated
    in each of the k columns, (n, k): a broadcast sum along whole rows is
    faster than one from an (n, 1) column."""
    sq = row_sq + _row_norms(stack)[:, None, :]
    sq -= rows @ (2.0 * stack).swapaxes(1, 2)
    return sq


def silhouette(dist: np.ndarray, assignment: np.ndarray) -> float:
    """Mean silhouette value (b - a) / max(a, b) over the (n, n) Euclidean
    distance matrix ``dist`` of the assigned samples.

    Requires at least two non-empty clusters. Samples alone in their cluster
    contribute 0, and a degenerate 0/0 (all distances zero) counts as 0.
    """
    cluster_ids, labels = np.unique(np.asarray(assignment), return_inverse=True)
    n = len(labels)
    samples = np.arange(n)
    onehot = np.zeros((n, len(cluster_ids)))
    onehot[samples, labels] = 1.0
    sums = dist @ onehot  # (n, clusters): distance sum to each cluster
    counts = np.bincount(labels)
    own = counts[labels]
    means = sums / counts
    means[samples, labels] = np.inf
    b = means.min(axis=1)
    a = sums[samples, labels] / np.maximum(own - 1, 1)
    denom = np.maximum(a, b)
    # singleton convention and 0/0 both give s = 0
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(own > 1) & (denom > 0))
    return float(scores.mean())


def assign_clusters(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid; ties go to the lowest id. A NaN
    distance, inf - inf for a row whose squared norm overflows, counts as inf."""
    dist = _pairwise_distances(rows, centroids)
    dist[np.isnan(dist)] = np.inf
    return np.argmin(dist, axis=1)


def _plus_plus_seeds(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance.

    Each draw after the first reads every row's squared distance to its
    nearest seed so far; no draw reads the distances to the last seed, so
    they are not computed."""
    centroids = np.empty((k, rows.shape[1]))
    centroids[0] = rows[rng.integers(len(rows))]
    closest_sq = np.full(len(rows), np.inf)
    for j in range(1, k):
        closest_sq = np.minimum(closest_sq, np.sum((rows - centroids[j - 1]) ** 2, axis=1))
        total = closest_sq.sum()
        if total == 0:
            centroids[j] = rows[rng.integers(len(rows))]
        else:
            centroids[j] = rows[rng.choice(len(rows), p=closest_sq / total)]
    return centroids


def _lloyd(rows: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations from a stack of seed sets, all restarts at once.

    ``seeds`` is (R, k, N), one seed set per restart; ``rows`` are finite.
    Returns the (R, k, N) centroids, the (R, n) assignments and each
    restart's WCSS, each bit for bit what the restart gives when run alone.
    Each step makes one stacked distance computation and one stacked
    product of one-hot memberships with the rows, which gives every
    cluster sum of the live restarts; a restart leaves the batch at the
    iteration where it converges. A row joins the centroid at the least
    squared distance, the lowest id among equal values: ``assign_clusters``'
    rule, except where two squared distances round to the same root or both
    lie below 0, which its clamped roots tie.
    """
    centroids = seeds.copy()
    restarts, k, _ = centroids.shape
    n = len(rows)
    row_sq = np.repeat(_row_norms(rows)[:, None], k, axis=1)
    # the flat index of (slot, cluster 0, row) in a stacked (A, k, n) one-hot
    # array; a row's own cluster adds cluster * n
    flat_index = np.arange(restarts)[:, None] * (k * n) + np.arange(n)

    def assign(live: np.ndarray) -> np.ndarray:  # (len(live), n)
        return _squared_distances(rows, row_sq, centroids[live]).argmin(axis=2)

    live = np.arange(restarts)
    assignment = assign(live)
    for _ in range(KMEANS_MAX_ITER):
        current = assignment[live]
        onehot = np.zeros(len(live) * k * n)
        onehot[current * n + flat_index[: len(live)]] = 1.0
        onehot = onehot.reshape(len(live), k, n)
        counts = onehot.sum(axis=2)
        # a batched matmul multiplies each restart as a product of its own,
        # so a restart's sums have the same bits stacked or alone
        means = onehot @ rows
        means /= np.maximum(counts, 1.0)[..., None]
        empty = (counts == 0).any(axis=1)
        centroids[live[~empty]] = means[~empty]
        # an empty cluster is re-seeded on the worst-fit point while clusters
        # below it hold their new means and those above it their old ones
        for slot in np.flatnonzero(empty):
            own = centroids[live[slot]]
            done = 0
            for j in np.flatnonzero(counts[slot] == 0):
                own[done:j] = means[slot, done:j]
                far = np.argmax(np.sum((rows - own[current[slot]]) ** 2, axis=1))
                own[j] = rows[far]
                done = j + 1
            own[done:] = means[slot, done:]
        new_assignment = assign(live)
        assignment[live] = new_assignment
        live = live[(new_assignment != current).any(axis=1)]
        if not len(live):
            break
    wcss = [float(np.sum((rows - c[a]) ** 2)) for c, a in zip(centroids, assignment)]
    return centroids, assignment, wcss


def kmeans_fit(rows: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Best-of-10-restarts Lloyd clustering, deterministic under the seed.

    The restarts' k-means++ seeds are drawn one restart after another, then
    run as one batch. ``k`` is at least 1 and at most the rows' distinct
    count; ``select_k`` fits only such k.
    """
    rows = np.asarray(rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    seeds = np.stack([_plus_plus_seeds(rows, k, rng) for _ in range(KMEANS_RESTARTS)])
    batch = max(1, LLOYD_BATCH_CELLS // (len(rows) * k))
    centroids, wcss = [], []
    for start in range(0, KMEANS_RESTARTS, batch):
        batch_centroids, _, batch_wcss = _lloyd(rows, seeds[start : start + batch])
        centroids.extend(batch_centroids)
        wcss.extend(batch_wcss)
    # the first restart with the lowest WCSS
    return centroids[wcss.index(min(wcss))]


def select_k(rows: np.ndarray, seed: int) -> tuple[int, np.ndarray]:
    """Pick the cluster count in ``K_RANGE`` with the highest training silhouette.

    Returns that k and its ``kmeans_fit`` centroids. Ties break toward the
    smaller k; a k whose sample falls in one cluster is skipped. The
    silhouette is computed on a seeded uniform subsample capped at 2000 rows
    to keep the pairwise-distance matrix tractable; that matrix is built
    once and shared by every candidate k.
    """
    rows = np.asarray(rows, dtype=np.float64)
    distinct = len(np.unique(rows, axis=0))
    feasible = [k for k in K_RANGE if 2 <= k <= distinct]
    if not feasible:
        raise DataError(f"no feasible k in {list(K_RANGE)} for {distinct} distinct rows")
    rng = np.random.default_rng(seed)
    n = len(rows)
    sample = rows[np.sort(rng.choice(n, size=min(n, SILHOUETTE_SAMPLE_CAP), replace=False))]
    dist = _pairwise_distances(sample, sample)

    best_k, best_centroids, best_score = None, None, -np.inf
    for k in feasible:
        centroids = kmeans_fit(rows, k, seed=seed)
        assignment = assign_clusters(sample, centroids)
        if assignment.min() == assignment.max():
            continue
        score = silhouette(dist, assignment)
        if score > best_score:
            best_k, best_centroids, best_score = k, centroids, score
    if best_k is None:
        raise DataError("silhouette was undefined for every candidate k")
    return best_k, best_centroids


def cluster_anomaly_probabilities(
    assignments: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """Fraction of anomalous (label 1) members per cluster; empty -> 0. Sums
    of 0/1 labels are exact in any order."""
    anomalous = np.bincount(assignments, weights=labels, minlength=k)
    return anomalous / np.maximum(np.bincount(assignments, minlength=k), 1)


def kmeans_score(model: KMeansModel, rows: np.ndarray) -> np.ndarray:
    """Anomaly probability of each (M, N) row's nearest centroid (ties:
    lowest id). The rows come scaled by the model's own scaler, whose width
    the loader matched to the centroids'. A row whose squared distances
    overflow is at inf from every centroid, so it ties: no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return model.cluster_anomaly_prob[assign_clusters(rows, model.centroids)]
