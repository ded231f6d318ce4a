"""Synthetic per-node telemetry with ground-truth anomaly labels.

Baseline signals mimic aggregated node telemetry: metrics are grouped, each
group follows a workload factor built from a regime-switching mean (seeded
Markov chain), a multi-hour oscillation and a daily cycle, plus per-metric
noise; every metric is expanded into the (min, max, avg, var) bucket columns.

Three anomaly signatures separate the capabilities of the detector families:

* ``level_shift`` — additive offset on a fixed metric subset; visible to
  anything that models value ranges, and to jump detectors at its onset.
* ``correlation_break`` — half of one metric group replays its own past,
  staying smooth and in-range per feature while disagreeing with the metrics
  it normally co-varies with.
* ``temporal_disruption`` — rows are replaced by i.i.d. draws from the
  recent past: per-feature marginals are preserved (time-unaware detectors
  see nothing) while the temporal structure is destroyed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .telemetry import BUCKET_SECONDS, NodeDataset, feature_names_for
from .util import check_fields, derive_seed, make_dir, ranged, write_json

SIGNATURE_KINDS = ("level_shift", "correlation_break", "temporal_disruption")

DISRUPTION_POOL = 192  # two days of buckets feeding the i.i.d. shuffle
PLACEMENT_MARGIN = 4  # buckets kept clear between injected intervals
MIN_DURATION = 4
MAX_DURATION = 12
DAILY_PERIOD = 96
REGIME_COUNT = 3  # workload regimes the factors switch between
REGIME_SWITCH_PROB = 0.015  # per bucket: a workload regime lasts ~17 h on average
NOISE_STD = 0.1  # per-metric noise, in units of the workload factor


@dataclass
class SynthConfig:
    node_count: int = ranged("[1, inf)", 8)
    metric_count: int = ranged("[1, inf)", 16)
    timestep_count: int = ranged("[1, inf)", 6000)
    anomaly_rate: float = ranged("[0, 1)", 0.01)
    anomaly_mix: dict[str, float] = field(
        default_factory=lambda: {
            "level_shift": 0.2,
            "correlation_break": 0.2,
            "temporal_disruption": 0.6,
        }
    )
    seed: int = 20240817

    def __post_init__(self) -> None:
        check_fields(self)
        unknown = set(self.anomaly_mix) - set(SIGNATURE_KINDS)
        if unknown:
            raise ConfigError(f"unknown anomaly kinds in mix: {sorted(unknown)}")
        if self.anomaly_rate > 0:
            total = sum(self.anomaly_mix.values())
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"anomaly_mix weights must sum to 1, got {total}")
            if any(w < 0 for w in self.anomaly_mix.values()):
                raise ConfigError("anomaly_mix weights must be non-negative")


@dataclass(frozen=True)
class InjectedAnomaly:
    """One injected fault: rows [start, end), its kind, the metrics it
    touches and how hard.

    ``magnitude`` is kind-specific: the additive offset for level shifts,
    the replay distance in buckets for correlation breaks, and the sampling
    pool length in buckets for temporal disruptions.
    """

    start: int  # bucket index, inclusive
    end: int  # bucket index, exclusive
    kind: str
    metrics: tuple[int, ...]
    magnitude: float


def inject_anomaly(
    features: np.ndarray,
    pristine: np.ndarray,
    anomaly: InjectedAnomaly,
    rng: np.random.Generator | None,
) -> None:
    """Apply one fault to rows [start, end) of an aggregate matrix, in place.

    Correlation breaks and temporal disruptions copy rows of ``pristine``,
    the matrix before any fault, and a temporal disruption draws its rows
    with ``rng``. The interval must have ``magnitude`` rows of history
    before it: ``_place_intervals`` starts every interval after
    ``DISRUPTION_POOL``, the largest replay distance or pool.
    """
    start, end = anomaly.start, anomaly.end
    if anomaly.kind == "level_shift":
        for m in anomaly.metrics:
            features[start:end, 4 * m : 4 * m + 3] += anomaly.magnitude  # min, max, avg
        return
    if anomaly.kind == "correlation_break":
        source = np.arange(start, end) - int(anomaly.magnitude)
    else:  # temporal_disruption
        source = rng.integers(start - int(anomaly.magnitude), start, size=end - start)
    for m in anomaly.metrics:
        features[start:end, 4 * m : 4 * m + 4] = pristine[source, 4 * m : 4 * m + 4]


def _regime_path(rng: np.random.Generator, steps: int) -> np.ndarray:
    path = np.empty(steps, dtype=np.int64)
    current = int(rng.integers(REGIME_COUNT))
    draws = rng.random(steps)
    for t in range(steps):
        if draws[t] < REGIME_SWITCH_PROB:
            hop = int(rng.integers(REGIME_COUNT - 1))
            current = hop if hop < current else hop + 1
        path[t] = current
    return path


def _place_intervals(
    rng: np.random.Generator, cfg: SynthConfig
) -> list[tuple[int, int]]:
    """Disjoint anomaly intervals totalling round(rate * T) buckets."""
    steps = cfg.timestep_count
    target = int(round(cfg.anomaly_rate * steps))
    if target == 0:
        return []
    min_start = DISRUPTION_POOL + 1
    if min_start + MIN_DURATION >= steps:
        raise DataError("series too short to place anomalies after the warm-up day")

    durations: list[int] = []
    remaining = target
    while remaining > 0:
        d = int(rng.integers(MIN_DURATION, MAX_DURATION + 1))
        d = min(d, remaining)
        durations.append(d)
        remaining -= d

    placed: list[tuple[int, int]] = []
    for d in durations:
        for _ in range(1000):
            start = int(rng.integers(min_start, steps - d + 1))
            end = start + d
            if all(
                end + PLACEMENT_MARGIN <= s or e + PLACEMENT_MARGIN <= start
                for s, e in placed
            ):
                placed.append((start, end))
                break
        else:
            raise DataError(
                f"anomaly_rate {cfg.anomaly_rate} too high to place disjoint "
                f"intervals in {steps} buckets"
            )
    return sorted(placed)


def generate_node(
    cfg: SynthConfig, node_seed: int, node_id: str
) -> tuple[NodeDataset, list[InjectedAnomaly]]:
    """Generate one node's aggregated telemetry and ground-truth labels.

    Deterministic per (cfg.seed, node_seed). Labels are 1 exactly on the
    injected buckets.
    """
    rng = np.random.default_rng(node_seed)
    steps, metric_count = cfg.timestep_count, cfg.metric_count
    group_count = max(1, min(4, metric_count // 2))

    # workload factors, one per metric group
    regimes = _regime_path(rng, steps)
    t_axis = np.arange(steps)
    factors = np.empty((group_count, steps))
    load = np.empty((group_count, steps))
    for g in range(group_count):
        amp = rng.uniform(0.8, 1.2)
        period = rng.uniform(18.0, 36.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        daily_phase = rng.uniform(0.0, 2.0 * np.pi)
        means = rng.uniform(-0.35, 0.35, size=REGIME_COUNT)
        factors[g] = (
            means[regimes]
            + amp * np.sin(2.0 * np.pi * t_axis / period + phase)
            + 0.35 * amp * np.sin(2.0 * np.pi * t_axis / DAILY_PERIOD + daily_phase)
        )
        span = factors[g].max() - factors[g].min()
        load[g] = (factors[g] - factors[g].min()) / (span if span > 0 else 1.0)

    # per-metric series expanded into bucket aggregates
    features = np.empty((steps, 4 * metric_count))
    for j in range(metric_count):
        g = j % group_count
        scale = rng.uniform(0.6, 1.6)
        base = rng.uniform(2.0, 20.0)
        noise = rng.normal(0.0, NOISE_STD, size=steps)
        avg = base + scale * (factors[g] + noise)
        spread = scale * NOISE_STD * (
            0.4 + 0.4 * rng.random(steps) + 0.6 * load[g]
        )
        features[:, 4 * j] = avg - spread * rng.uniform(0.8, 1.2, size=steps)
        features[:, 4 * j + 1] = avg + spread * rng.uniform(0.8, 1.2, size=steps)
        features[:, 4 * j + 2] = avg
        features[:, 4 * j + 3] = spread**2

    # fault injection
    intervals = _place_intervals(rng, cfg)
    kinds = list(cfg.anomaly_mix.keys())
    weights = np.array([cfg.anomaly_mix[k] for k in kinds])
    shift_subset_size = int(rng.integers(max(1, metric_count // 4), max(2, metric_count // 2) + 1))
    shift_subset = tuple(
        sorted(int(j) for j in rng.choice(metric_count, size=shift_subset_size, replace=False))
    )

    labels = np.zeros(steps, dtype=np.int64)
    pristine = features.copy()
    injected: list[InjectedAnomaly] = []
    for start, end in intervals:
        kind = kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]
        if kind == "level_shift":
            metrics, magnitude = shift_subset, float(rng.uniform(2.0, 4.0))
        elif kind == "correlation_break":
            g = int(rng.integers(group_count))
            members = [j for j in range(metric_count) if j % group_count == g]
            half = max(1, len(members) // 2)
            metrics = tuple(
                sorted(int(j) for j in rng.choice(members, size=half, replace=False))
            )
            magnitude = float(rng.integers(12, 37))
        else:
            metrics, magnitude = tuple(range(metric_count)), float(DISRUPTION_POOL)
        anomaly = InjectedAnomaly(start, end, kind, metrics, magnitude)
        inject_anomaly(features, pristine, anomaly, rng)
        labels[start:end] = 1
        injected.append(anomaly)

    metric_names = [f"m{j:02d}" for j in range(metric_count)]
    dataset = NodeDataset(
        node_id=node_id,
        bucket_starts=t_axis * BUCKET_SECONDS,
        features=features,
        labels=labels,
        feature_names=feature_names_for(metric_names),
    )
    return dataset, injected


def generate_dataset(cfg: SynthConfig, out_dir: str | Path) -> dict:
    """Generate every node, write per-node CSVs plus a manifest, return it."""
    out_dir = Path(out_dir)
    make_dir(out_dir)
    manifest: dict = {"config": asdict(cfg), "nodes": {}}
    for i in range(cfg.node_count):
        node_id = f"node_{i:03d}"
        node_seed = derive_seed(cfg.seed, node_id)
        try:
            dataset, injected = generate_node(cfg, node_seed, node_id)
        except MemoryError:
            raise ConfigError(
                f"timestep_count {cfg.timestep_count} is too large: one node's "
                f"{cfg.metric_count} metrics over that many buckets do not fit in memory"
            ) from None
        path = out_dir / f"{node_id}.csv"
        dataset.to_csv(path)
        manifest["nodes"][node_id] = {
            "seed": node_seed,
            "file": path.name,
            "anomalies": [asdict(a) for a in injected],
        }
    write_json(out_dir / "manifest.json", manifest)
    return manifest
