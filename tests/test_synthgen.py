import json

import numpy as np
import numpy.testing as npt
import pytest

from nodewatch import synthgen
from nodewatch.errors import ConfigError, DataError
from nodewatch.synthgen import (
    SIGNATURE_KINDS,
    InjectedAnomaly,
    SynthConfig,
    generate_dataset,
    generate_node,
    inject_anomaly,
)
from nodewatch.util import read_config, write_json


def small_config(**overrides):
    defaults = dict(
        node_count=1,
        metric_count=6,
        timestep_count=1200,
        anomaly_rate=0.02,
        seed=7,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


def lag1_autocorr(values):
    x = values[:-1] - values[:-1].mean()
    y = values[1:] - values[1:].mean()
    return float((x * y).mean() / np.sqrt((x * x).mean() * (y * y).mean()))


class TestConfig:
    def test_defaults_match_documented_run(self):
        cfg = SynthConfig()
        assert (cfg.node_count, cfg.metric_count, cfg.timestep_count) == (8, 16, 6000)
        assert cfg.anomaly_rate == 0.01
        assert cfg.anomaly_mix["temporal_disruption"] == max(cfg.anomaly_mix.values())

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError, match="anomaly_rate"):
            small_config(anomaly_rate=1.5)

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            small_config(anomaly_mix={"level_shift": 0.7, "temporal_disruption": 0.7})

    def test_round_trip(self, tmp_path):
        # the manifest's config, saved as a file, is a synth config again
        cfg = small_config()
        manifest = generate_dataset(cfg, tmp_path / "data")
        write_json(tmp_path / "synth.json", manifest["config"])
        assert read_config(SynthConfig, tmp_path / "synth.json") == cfg


class TestGenerateNode:
    def test_zero_rate_means_all_normal(self):
        ds, injected = generate_node(small_config(anomaly_rate=0.0), 3, "n0")
        assert ds.labels.sum() == 0
        assert injected == []

    def test_deterministic_per_seed_pair(self):
        cfg = small_config()
        a, inj_a = generate_node(cfg, 99, "n0")
        b, inj_b = generate_node(cfg, 99, "n0")
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.labels, b.labels)
        assert inj_a == inj_b
        c, _ = generate_node(cfg, 100, "n0")
        assert not np.array_equal(a.features, c.features)

    def test_aggregate_column_invariants(self):
        ds, _ = generate_node(small_config(), 1, "n0")
        for j in range(6):
            mn, mx, avg, var = (ds.features[:, 4 * j + k] for k in range(4))
            assert np.all(mn <= avg) and np.all(avg <= mx)
            assert np.all(var >= 0)

    def test_labels_cover_exactly_the_injected_buckets(self):
        ds, injected = generate_node(small_config(), 11, "n0")
        expected = np.zeros(len(ds), dtype=int)
        for anomaly in injected:
            expected[anomaly.start : anomaly.end] = 1
        npt.assert_array_equal(ds.labels, expected)

    def test_intervals_are_disjoint(self):
        _, injected = generate_node(small_config(anomaly_rate=0.05), 13, "n0")
        spans = sorted((a.start, a.end) for a in injected)
        assert len(spans) > 3
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2  # exhaustive pairwise check on sorted spans

    def test_every_signature_has_the_history_it_reads(self):
        # inject_anomaly trusts its caller: each interval lies in the series
        # with `magnitude` rows before it, and each signature is well formed
        cfg = small_config(timestep_count=800, anomaly_rate=0.08)
        for node_seed in range(6):
            ds, injected = generate_node(cfg, node_seed, "n0")
            assert injected
            for anomaly in injected:
                assert anomaly.kind in SIGNATURE_KINDS and anomaly.metrics
                assert anomaly.magnitude > 0 and anomaly.end - anomaly.start >= 1
                assert anomaly.start - anomaly.magnitude >= 0 and anomaly.end <= len(ds)

    def test_label_fraction_tracks_rate(self):
        cfg = small_config(timestep_count=4000, anomaly_rate=0.03)
        ds, _ = generate_node(cfg, 17, "n0")
        fraction = ds.labels.mean()
        assert 0.8 * cfg.anomaly_rate <= fraction <= 1.2 * cfg.anomaly_rate

    def test_impossible_rate_raises(self):
        with pytest.raises(DataError, match="too high"):
            generate_node(small_config(timestep_count=400, anomaly_rate=0.6), 1, "n0")

    def test_stationary_without_regime_switches(self, monkeypatch):
        # the first regime holds throughout, no anomalies: chunk means must agree within noise
        monkeypatch.setattr(synthgen, "REGIME_SWITCH_PROB", 0.0)
        cfg = small_config(anomaly_rate=0.0, timestep_count=4800, metric_count=4)
        ds, _ = generate_node(cfg, 23, "n0")
        for j in range(4):
            col = ds.features[:, 4 * j + 2]
            first, second = col[:2400], col[2400:]
            assert abs(first.mean() - second.mean()) < 0.15 * col.std()


class TestTemporalDisruptionStatistics:
    def test_marginal_preserved_and_autocorrelation_destroyed(self):
        # independent analysis of a pure-disruption fixture: inside intervals
        # the per-metric mean/std must stay within 0.1 outside-std while
        # lag-1 autocorrelation collapses below 0.2x its outside value
        cfg = SynthConfig(
            node_count=1,
            metric_count=8,
            timestep_count=20000,
            anomaly_rate=0.04,
            anomaly_mix={
                "level_shift": 0.0,
                "correlation_break": 0.0,
                "temporal_disruption": 1.0,
            },
            seed=5,
        )
        ds, injected = generate_node(cfg, 303, "n0")
        inside = ds.labels == 1
        outside = ~inside
        for j in range(cfg.metric_count):
            col = ds.features[:, 4 * j + 2]
            mu_out, sd_out = col[outside].mean(), col[outside].std()
            assert abs(col[inside].mean() - mu_out) < 0.1 * sd_out
            assert abs(col[inside].std() - sd_out) < 0.1 * sd_out

            both_inside = inside[:-1] & inside[1:]
            both_outside = outside[:-1] & outside[1:]
            ac_in = lag1_autocorr_pairs(col, both_inside)
            ac_out = lag1_autocorr_pairs(col, both_outside)
            assert ac_out > 0.5  # the baseline really is autocorrelated
            assert abs(ac_in) < 0.2 * ac_out


def lag1_autocorr_pairs(col, pair_mask):
    x = col[:-1][pair_mask]
    y = col[1:][pair_mask]
    x = x - x.mean()
    y = y - y.mean()
    return float((x * y).mean() / np.sqrt((x * x).mean() * (y * y).mean()))


class TestInjectAnomaly:
    def matrix(self, rows=50, metrics=3, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(rows, 4 * metrics))

    def injected(self, base, anomaly, rng=None):
        """A copy of ``base`` with ``anomaly`` injected; ``base`` is the pristine matrix."""
        out = base.copy()
        inject_anomaly(out, base, anomaly, rng)
        return out

    def test_level_shift_is_exactly_additive(self):
        base = self.matrix()
        out = self.injected(base, InjectedAnomaly(10, 15, "level_shift", (1,), 2.5))
        delta = out - base
        npt.assert_allclose(delta[10:15, 4:7], 2.5)  # min, max, avg shifted
        npt.assert_allclose(delta[10:15, 7], 0.0)  # var untouched
        delta[10:15, 4:7] = 0.0
        npt.assert_array_equal(delta, 0.0)

    def test_duration_one_modifies_a_single_bucket(self):
        base = self.matrix()
        out = self.injected(base, InjectedAnomaly(7, 8, "level_shift", (0,), 1.0))
        changed_rows = np.flatnonzero(np.any(out != base, axis=1))
        npt.assert_array_equal(changed_rows, [7])

    def test_correlation_break_replays_the_past(self):
        base = self.matrix()
        out = self.injected(base, InjectedAnomaly(20, 24, "correlation_break", (2,), 6))
        npt.assert_array_equal(out[20:24, 8:12], base[14:18, 8:12])
        npt.assert_array_equal(out[:, :8], base[:, :8])  # other metrics intact

    def test_disruption_rows_come_from_the_pool(self):
        base = self.matrix(rows=80)
        anomaly = InjectedAnomaly(50, 56, "temporal_disruption", (0, 1, 2), 30)
        out = self.injected(base, anomaly, np.random.default_rng(42))
        pool = base[20:50]
        for row in out[50:56]:
            assert any(np.array_equal(row, p) for p in pool)


class TestGenerateDataset:
    def test_writes_node_files_and_manifest(self, tmp_path):
        cfg = small_config(node_count=3)
        manifest = generate_dataset(cfg, tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["node_000.csv", "node_001.csv", "node_002.csv"]
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["config"]["metric_count"] == cfg.metric_count
        assert set(on_disk["nodes"]) == {"node_000", "node_001", "node_002"}
        assert manifest["nodes"]["node_000"]["anomalies"]

    def test_regenerating_is_byte_identical(self, tmp_path):
        cfg = small_config(node_count=2)
        generate_dataset(cfg, tmp_path / "a")
        generate_dataset(cfg, tmp_path / "b")
        for name in ("node_000.csv", "node_001.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
