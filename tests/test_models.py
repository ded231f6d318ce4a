import base64
import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from nodewatch import models as mdl
from nodewatch import neuralnet as nn
from nodewatch.baselines import KMeansModel
from nodewatch.cli import main
from nodewatch.errors import DataError
from nodewatch.pipeline import ScalerParams, apply_minmax, chronological_split, make_windows
from nodewatch.neuralnet import TrainingConfig
from nodewatch.util import write_json

from conftest import build_dataset
from test_neuralnet import layer_arrays, reference_lstm


def training_config(seed=0, epochs=3):
    return TrainingConfig(max_epochs=epochs, seed=seed)


def smooth_dataset(n=150, n_features=4, labels=None, seed=0):
    """Slow sine waves plus noise: enough structure to train on quickly."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    cols = [
        5.0 + np.sin(2 * np.pi * t / 30.0 + p) + rng.normal(scale=0.05, size=n)
        for p in rng.uniform(0, 2 * np.pi, size=n_features)
    ]
    features = np.stack(cols, axis=1)
    if labels is None:
        labels = np.zeros(n, dtype=int)
    return build_dataset(labels, features=features)


class TestRegimeMatrix:
    def test_filter_matrix_rows(self, tmp_path):
        """``train`` gives the methods named ``_semi`` the semi-supervised filter."""
        synth, run = tmp_path / "synth.json", tmp_path / "run.json"
        data, out = tmp_path / "data", tmp_path / "run"
        write_json(synth, {"node_count": 1, "metric_count": 2, "timestep_count": 200, "seed": 3})
        write_json(run, {
            "data_dir": str(data), "methods": ["DENSE_semi", "DENSE_un", "RUAD_semi", "RUAD"],
            "windows": [3], "training": {"max_epochs": 1},
        })
        assert main(["generate", "--config", str(synth), "--out", str(data)]) == 0
        assert main(["train", "--config", str(run), "--out", str(out)]) == 0
        stored = {
            path.stem: mdl.load_trained_model(path).regime.semi_supervised
            for path in (out / "models" / "node_000").glob("*.json")
        }
        assert stored == {
            "DENSE_semi": True, "DENSE_un": False, "RUAD_semi_W3": True, "RUAD_W3": False,
        }

    def test_instance_names_mirror_store_layout(self):
        assert mdl.method_instance_name("EXP") == "EXP"
        assert mdl.method_instance_name("CLU") == "CLU"
        assert mdl.method_instance_name("DENSE_semi") == "DENSE_semi"
        assert mdl.method_instance_name("RUAD", 10) == "RUAD_W10"
        assert mdl.method_instance_name("RUAD_semi", 5) == "RUAD_semi_W5"


class TestBuildModel:
    def test_dense_shapes_follow_published_pattern(self):
        params = nn.init_params(
            mdl.layer_specs(mdl.ModelSpec(kind="dense", input_dim=462)), seed=0
        )
        shapes = [layer.weights.shape for layer in params.layers]
        assert shapes == [(16, 462), (8, 16), (16, 8), (462, 16)]
        assert params.layers[-1].activation == "sigmoid"

    def test_ruad_shapes_follow_published_pattern(self):
        params = nn.init_params(
            mdl.layer_specs(mdl.ModelSpec(kind="ruad", input_dim=462, window=10)), seed=0
        )
        first, second, third, fourth = params.layers
        assert isinstance(first, nn.LstmLayer) and first.hidden_dim == 16
        assert first.return_sequence is True
        assert isinstance(second, nn.LstmLayer) and second.hidden_dim == 8
        assert second.return_sequence is False
        assert third.weights.shape == (16, 8)
        assert fourth.weights.shape == (462, 16)

    def test_ruad_window_one_is_valid(self):
        spec = mdl.ModelSpec(kind="ruad", input_dim=6, window=1)
        params = nn.init_params(mdl.layer_specs(spec), seed=1)
        out, _ = nn.forward(params, np.zeros((1, 1, 6)))
        assert out.shape == (1, 6)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataError):
            mdl.ModelSpec(kind="transformer", input_dim=4)
        with pytest.raises(DataError):
            mdl.ModelSpec(kind="dense", input_dim=0)
        with pytest.raises(DataError, match="dense model reads one row"):
            mdl.ModelSpec(kind="dense", input_dim=4, window=5)


class TestTrainNodeModel:
    def test_semi_filter_is_identity_on_clean_data(self):
        ds = smooth_dataset(n=120)
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        semi, _ = mdl.train_node_model(
            ds, spec, mdl.Regime(semi_supervised=True), training_config(seed=11)
        )
        unsup, _ = mdl.train_node_model(
            ds, spec, mdl.Regime(semi_supervised=False), training_config(seed=11)
        )
        npt.assert_array_equal(semi.network.values, unsup.network.values)
        assert semi.max_train_error == unsup.max_train_error

    def test_ruad_unsupervised_smoke(self):
        ds = smooth_dataset(n=160)
        spec = mdl.ModelSpec(kind="ruad", input_dim=4, window=5)
        model, history = mdl.train_node_model(
            ds, spec, mdl.Regime(semi_supervised=False), training_config(seed=3)
        )
        assert model.max_train_error > 0
        assert len(history) >= 1 and all(np.isfinite(history))

    def test_too_few_rows_for_window_errors(self):
        ds = smooth_dataset(n=9)
        spec = mdl.ModelSpec(kind="ruad", input_dim=4, window=10)
        with pytest.raises(DataError, match="no training windows"):
            mdl.train_node_model(ds, spec, mdl.Regime(semi_supervised=False), training_config())

    def test_semi_filter_emptying_is_reported(self):
        ds = smooth_dataset(n=20, labels=[1] * 20)
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        with pytest.raises(DataError, match="semi-supervised filter removed every row"):
            mdl.train_node_model(ds, spec, mdl.Regime(semi_supervised=True), training_config())

    @pytest.mark.parametrize("patience", [1, 3])
    def test_early_stopping_ends_a_run_that_stops_improving(self, patience):
        # at learning rate 0 no epoch improves on the first by more than 1e-6,
        # so the run stops after the first epoch and ``patience`` stale ones
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        cfg = TrainingConfig(learning_rate=0.0, max_epochs=10,
                             early_stop_patience=patience, seed=4)
        model, history = mdl.train_node_model(
            smooth_dataset(n=60), spec, mdl.Regime(semi_supervised=False), cfg
        )
        assert len(history) == patience + 1
        first = nn.init_params(mdl.layer_specs(spec), cfg.seed)
        assert model.network.values.tobytes() == first.values.tobytes()

    def test_train_probabilities_capped_by_construction(self):
        train = chronological_split(smooth_dataset(n=140), 0.8).train
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        model, _ = mdl.train_node_model(
            train, spec, mdl.Regime(semi_supervised=False), training_config(seed=2)
        )
        series = mdl.score_node_model(model, train)
        assert series.probabilities.max() <= 1.0


def identity_scaler(n):
    return ScalerParams(minimum=np.zeros(n), maximum=np.ones(n))


def constant_output_model(n, value, max_train_error=1.0):
    """Network that ignores its input and emits `value` (> 0) everywhere."""
    values = np.concatenate([np.zeros(n * n), np.full(n, value)])  # weights, then bias
    return mdl.TrainedModel(
        spec=mdl.ModelSpec(kind="dense", input_dim=n),
        network=nn.NetworkParams([nn.DenseSpec(n, n, "relu")], values),
        scaler=identity_scaler(n),
        max_train_error=max_train_error,
        regime=mdl.Regime(semi_supervised=False),
        training={},
    )


class TestScoreNodeModel:
    def test_perfect_reconstruction_scores_zero(self):
        ds = build_dataset([0] * 5, features=np.full((5, 3), 0.4))
        model = constant_output_model(3, 0.4)
        series = mdl.score_node_model(model, ds)
        npt.assert_array_equal(series.probabilities, 0.0)

    def test_error_at_train_maximum_scores_one(self):
        # |0.9 - 0.4| * 3 features = 1.5 == max_train_error -> probability 1
        ds = build_dataset([0] * 4, features=np.full((4, 3), 0.4))
        model = constant_output_model(3, 0.9, max_train_error=1.5)
        series = mdl.score_node_model(model, ds)
        npt.assert_allclose(series.probabilities, 1.0)

    def test_probabilities_follow_hand_computed_chain(self):
        # two features, W=2: replicate scaling, the recurrence, the L1 error
        # and the clamp completely independently of the scoring code
        raw = np.array([[1.0, 4.0], [2.0, 6.0], [3.0, 5.0], [2.5, 4.5]])
        ds = build_dataset([0, 1, 0, 0], features=raw)
        spec = mdl.ModelSpec(kind="ruad", input_dim=2, window=2)
        network = nn.init_params(mdl.layer_specs(spec), seed=21)
        scaler = ScalerParams(minimum=np.array([1.0, 4.0]), maximum=np.array([3.0, 6.0]))
        model = mdl.TrainedModel(
            spec=spec,
            network=network,
            scaler=scaler,
            max_train_error=0.8,
            regime=mdl.Regime(semi_supervised=False),
            training={},
        )
        series = mdl.score_node_model(model, ds)

        scaled = (raw - scaler.minimum) / (scaler.maximum - scaler.minimum)
        expected = []
        for lo in range(3):  # windows end at rows 1, 2, 3
            window = scaled[lo : lo + 2]
            h1 = reference_lstm(network.layers[0], window)
            h2 = reference_lstm(network.layers[1], h1)
            z = np.maximum(network.layers[2].weights @ h2[-1] + network.layers[2].bias, 0)
            pre = network.layers[3].weights @ z + network.layers[3].bias
            out = 1.0 / (1.0 + np.exp(-pre))
            err = np.abs(out - window[-1]).sum()
            expected.append(min(err / 0.8, 1.0))
        npt.assert_allclose(series.probabilities, expected, atol=1e-12)
        npt.assert_array_equal(series.labels, [1, 0, 0])
        npt.assert_array_equal(series.bucket_starts, ds.bucket_starts[1:])

    def test_labels_never_influence_probabilities(self):
        split = chronological_split(smooth_dataset(n=60), 0.8)
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        model, _ = mdl.train_node_model(
            split.train, spec, mdl.Regime(semi_supervised=False), training_config(seed=5)
        )
        test = split.test
        flipped = build_dataset(
            1 - test.labels, features=test.features, bucket_starts=test.bucket_starts
        )
        a = mdl.score_node_model(model, test)
        b = mdl.score_node_model(model, flipped)
        npt.assert_array_equal(a.probabilities, b.probabilities)
        npt.assert_array_equal(b.labels, 1 - a.labels)

    def test_dense_path_equals_manual_row_scoring(self):
        split = chronological_split(smooth_dataset(n=80), 0.8)
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        model, _ = mdl.train_node_model(
            split.train, spec, mdl.Regime(semi_supervised=False), training_config(seed=9)
        )
        test = split.test
        series = mdl.score_node_model(model, test)
        # scoring computes in float32: the network, the rows and the L1 error
        rows = apply_minmax(model.scaler, test).features.astype(np.float32)
        network = nn.NetworkParams(model.network.specs, model.network.values.astype(np.float32))
        out, _ = nn.forward(network, rows[:, None, :])
        errors = np.abs(out - rows).sum(axis=1)
        expected = np.minimum(errors / model.max_train_error, 1.0)
        npt.assert_allclose(series.probabilities, expected, atol=1e-12)

    def test_no_scoreable_windows_is_a_data_error(self):
        ds = build_dataset([0, 0], features=np.ones((2, 3)))
        model = constant_output_model(3, 0.5)
        model.spec = mdl.ModelSpec(kind="ruad", input_dim=3, window=5)
        with pytest.raises(DataError, match=r"^no scoreable windows \(need >= 5 consecutive"):
            mdl.score_node_model(model, ds)

    def test_feature_count_mismatch_rejected(self):
        ds = build_dataset([0], features=np.ones((1, 2)))
        model = constant_output_model(3, 0.5)
        with pytest.raises(DataError, match="features"):
            mdl.score_node_model(model, ds)


class TestReconstructionErrors:
    @pytest.mark.parametrize("w", [1, 5, 10, 40], ids=["dense", "W5", "W10", "W40"])
    def test_window_keeps_its_bits_when_rows_before_or_after_it_drop(self, w):
        # a pass's row count sets the BLAS path, and so a window's last bits: with an
        # unpadded last pass, RUAD_W10's window 275 changes when the last 15 rows drop
        spec = mdl.ModelSpec("dense", 32) if w == 1 else mdl.ModelSpec("ruad", 32, w)
        params = nn.init_params(mdl.layer_specs(spec), seed=3)
        rows = np.random.default_rng(1).uniform(size=(300, 32))

        def errors(part):
            node = build_dataset(np.zeros(len(part)), features=part)
            return mdl.reconstruction_errors(params, make_windows(node, w))

        whole = errors(rows)
        for k in (1, 4, 15, 20, 37, 100, 128, 200):
            npt.assert_array_equal(errors(rows[:-k]), whole[: len(whole) - k])
            npt.assert_array_equal(errors(rows[k:]), whole[k:])

    def test_dense_score_keeps_its_bits_at_any_offset(self, rng):
        # a dense layer's bits depend on a pass's row count, so unpadded chunks
        # give some rows other bits when the scored rows start or end elsewhere
        spec = mdl.ModelSpec("dense", 32)
        model = mdl.TrainedModel(
            spec=spec,
            network=nn.init_params(mdl.layer_specs(spec), seed=4),
            scaler=identity_scaler(32),
            max_train_error=1e3,
            regime=mdl.Regime(semi_supervised=False),
            training={},
        )
        node = build_dataset(np.zeros(2 * 512 + 37), features=rng.uniform(size=(2 * 512 + 37, 32)))
        whole = mdl.score_node_model(model, node).probabilities
        for start, stop in [(1, None), (7, None), (100, None), (333, None), (0, 600), (45, 1000)]:
            part = node.take(np.arange(len(node))[start:stop])
            npt.assert_array_equal(
                mdl.score_node_model(model, part).probabilities, whole[start:stop]
            )

    @pytest.mark.parametrize("spec", [mdl.ModelSpec("dense", 2), mdl.ModelSpec("ruad", 2, 3)])
    def test_error_too_large_for_a_float_scores_one(self, spec):
        # 5e307 over a training span of 0.5 scales to a finite 1e308 in both
        # features, so the L1 error of 2e308 overflows: inf, with no warning
        features = np.full((4, 2), 0.25)
        features[3] = 5e307
        model = mdl.TrainedModel(
            spec=spec,
            network=nn.init_params(mdl.layer_specs(spec), seed=0),
            scaler=ScalerParams(np.zeros(2), np.full(2, 0.5)),
            max_train_error=1.0,
            regime=mdl.Regime(semi_supervised=False),
            training={},
        )
        series = mdl.score_node_model(model, build_dataset([0] * 4, features=features))
        assert series.probabilities[-1] == 1.0

    def test_ruad_w40_training_peak_stays_under_16_mb(self, rng):
        ds = build_dataset(np.zeros(2000), features=rng.uniform(size=(2000, 64)))
        spec = mdl.ModelSpec(kind="ruad", input_dim=64, window=40)
        tracemalloc.start()
        try:
            mdl.train_node_model(
                ds, spec, mdl.Regime(semi_supervised=False), training_config(epochs=1)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 1561 training windows copied as one (K, W, N) array would take 32 MB
        assert peak < 16 * 2**20


class TestBaselineRunners:
    def clustered_dataset(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        modes = rng.integers(0, 2, size=n)
        features = np.where(
            modes[:, None] == 0,
            rng.normal(0.0, 0.3, size=(n, 3)),
            rng.normal(6.0, 0.3, size=(n, 3)),
        )
        labels = (modes == 1) & (rng.random(n) < 0.3)
        return build_dataset(labels.astype(int), features=features)

    def test_clu_scores_are_cluster_rates(self):
        split = chronological_split(self.clustered_dataset(), 0.8)
        model = mdl.train_clu_model(split.train, seed=1)
        series = mdl.score_clu_model(model, split.test)
        allowed = set(np.round(model.kmeans.cluster_anomaly_prob, 12).tolist())
        assert set(np.round(series.probabilities, 12).tolist()) <= allowed

    def test_clu_is_deterministic(self):
        ds = self.clustered_dataset()
        a = mdl.train_clu_model(ds, seed=3)
        b = mdl.train_clu_model(ds, seed=3)
        npt.assert_array_equal(a.kmeans.centroids, b.kmeans.centroids)
        npt.assert_array_equal(a.kmeans.cluster_anomaly_prob, b.kmeans.cluster_anomaly_prob)

    def test_exp_runner_matches_manual_composition(self):
        from nodewatch.baselines import EXP_ALPHA, exp_smoothing_scores
        from nodewatch.pipeline import fit_minmax

        split = chronological_split(smooth_dataset(n=100), 0.8)
        series = mdl.score_exp_method(split)
        scaled_test = apply_minmax(fit_minmax(split.train), split.test)
        expected = exp_smoothing_scores(scaled_test, EXP_ALPHA)
        npt.assert_array_equal(series.probabilities, expected.probabilities)
        npt.assert_array_equal(series.bucket_starts, split.test.bucket_starts)

    def test_exp_test_reading_that_overflows_when_scaled_is_a_data_error(self):
        features = np.full((10, 2), 0.25)
        features[0], features[1] = 0.0, 0.5  # the training rows span 0.5
        features[9, 1] = 1e308  # / 0.5 overflows to inf, with no warning
        split = chronological_split(build_dataset([0] * 10, features=features), 0.8)
        with pytest.raises(DataError, match="^feature f1 of bucket 8100 overflows when scaled$"):
            mdl.score_exp_method(split)

    def test_exp_deviation_too_large_for_a_float_scores_one(self):
        # 5e307 over a training span of 0.5 scales to a finite 1e308 in both
        # features, so the row's deviation sum overflows: inf, with no warning
        features = np.full((10, 2), 0.25)
        features[0], features[1] = 0.0, 0.5  # the training rows span 0.5
        features[9] = 5e307
        split = chronological_split(build_dataset([0] * 10, features=features), 0.8)
        npt.assert_array_equal(mdl.score_exp_method(split).probabilities, [0.0, 1.0])

    def cluster_model(self):
        """Three clusters on the line y = 0.5 of a [0, 1] square, scaled from
        a span of 0.5 per feature."""
        centroids = np.array([[0.1, 0.5], [0.9, 0.5], [0.5, 0.5]])
        kmeans = KMeansModel(centroids=centroids,
                             cluster_anomaly_prob=np.array([0.2, 0.7, 0.4]), seed=0)
        return mdl.ClusterModel(ScalerParams(np.zeros(2), np.full(2, 0.5)), kmeans)

    def test_clu_row_whose_distances_overflow_ties_on_the_lowest_id(self):
        # 1e300 scales to 2e300, finite, but its squared norm overflows: every
        # centroid is at inf, so cluster 0 wins the tie over the nearer cluster 1
        test = build_dataset([0, 0], features=[[0.25, 0.25], [1e300, 0.25]])
        series = mdl.score_clu_model(self.cluster_model(), test)
        npt.assert_array_equal(series.probabilities, [0.4, 0.2])

    def test_clu_test_reading_that_overflows_when_scaled_is_a_data_error(self):
        test = build_dataset([0, 0], features=[[0.25, 0.25], [1e308, 0.25]])
        with pytest.raises(DataError, match="^feature f0 of bucket 900 overflows when scaled$"):
            mdl.score_clu_model(self.cluster_model(), test)


class TestModelStore:
    def test_trained_model_round_trip(self, tmp_path):
        split = chronological_split(smooth_dataset(n=100), 0.8)
        spec = mdl.ModelSpec(kind="ruad", input_dim=4, window=3)
        model, _ = mdl.train_node_model(
            split.train, spec, mdl.Regime(semi_supervised=False), training_config(seed=13)
        )
        target = mdl.model_path(tmp_path / "models", "test_node", "RUAD_W3")
        path = mdl.save_trained_model(target, model)
        assert path == tmp_path / "models" / "test_node" / "RUAD_W3.json"
        loaded = mdl.load_trained_model(path)
        npt.assert_array_equal(
            mdl.score_node_model(loaded, split.test).probabilities,
            mdl.score_node_model(model, split.test).probabilities,
        )
        assert loaded.regime == model.regime
        assert loaded.max_train_error == model.max_train_error

    def test_missing_entry_is_a_data_error_naming_the_file(self, tmp_path):
        model = mdl.train_clu_model(TestBaselineRunners().clustered_dataset(), seed=2)
        path = mdl.save_cluster_model(tmp_path / "models" / "CLU.json", model)
        stored = json.loads(path.read_text())
        del stored["kmeans"]
        path.write_text(json.dumps(stored))
        with pytest.raises(DataError, match="kmeans") as info:
            mdl.load_cluster_model(path)
        assert str(path) in str(info.value)

    def test_cluster_model_round_trip(self, tmp_path):
        split = chronological_split(TestBaselineRunners().clustered_dataset(), 0.8)
        model = mdl.train_clu_model(split.train, seed=2)
        path = mdl.save_cluster_model(tmp_path / "models" / "CLU.json", model)
        loaded = mdl.load_cluster_model(path)
        npt.assert_array_equal(
            mdl.score_clu_model(loaded, split.test).probabilities,
            mdl.score_clu_model(model, split.test).probabilities,
        )


# the float64 values a text encoding is most likely to bend: a signed zero,
# the smallest subnormal and the two largest magnitudes
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def edge_scaler(width=4):
    low = np.array([-1.7976931348623157e308, -0.0, 0.0, 5e-324])[:width]
    return ScalerParams(low, np.full(width, 1.7976931348623157e308))


def store_arrays(model):
    """(name, array) for every array a store holds."""
    arrays = [("scaler.min", model.scaler.minimum), ("scaler.max", model.scaler.maximum)]
    if isinstance(model, mdl.ClusterModel):
        return arrays + [("centroids", model.kmeans.centroids),
                         ("probabilities", model.kmeans.cluster_anomaly_prob)]
    return arrays + list(layer_arrays(model.network).items())


def resized(entry, change):
    """A stored ``{"shape", "f8"}`` vector with ``change`` values cut off
    its end (negative) or zeros appended (positive)."""
    size = entry["shape"][0] + change
    data = (base64.b64decode(entry["f8"]) + bytes(8 * max(change, 0)))[: 8 * size]
    return {"shape": [size], "f8": base64.b64encode(data).decode("ascii")}


class TestStoreFormat:
    @pytest.mark.parametrize("kind", ["dense", "ruad", "clu"])
    def test_every_array_round_trips_bit_for_bit(self, tmp_path, kind):
        if kind == "clu":
            centroids = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
            kmeans = KMeansModel(centroids=centroids,
                                 cluster_anomaly_prob=np.array([-0.0, 5e-324]), seed=3)
            model = mdl.ClusterModel(edge_scaler(), kmeans)
            path = mdl.save_cluster_model(tmp_path / "CLU.json", model)
            loaded = mdl.load_cluster_model(path)
        else:
            spec = mdl.ModelSpec(kind=kind, input_dim=4, window=3 if kind == "ruad" else 1)
            network = nn.init_params(mdl.layer_specs(spec), seed=3)
            for array in layer_arrays(network).values():
                array.flat[:4] = EDGE_VALUES
            model = mdl.TrainedModel(spec, network, edge_scaler(), 5e-324,
                                     mdl.Regime(semi_supervised=False), {})
            path = mdl.save_trained_model(tmp_path / f"{kind}.json", model)
            loaded = mdl.load_trained_model(path)
            assert loaded.max_train_error == 5e-324 and loaded.spec == spec
        assert json.loads(path.read_text())["format"] == 4
        pairs = list(zip(store_arrays(model), store_arrays(loaded)))
        assert len(pairs) >= 4
        for (name, array), (loaded_name, copy) in pairs:
            assert name == loaded_name and copy.shape == array.shape, name
            assert copy.tobytes() == array.tobytes(), name
            assert copy.dtype == np.float64 and copy.dtype.isnative, name
            assert copy.flags.writeable, name  # not a read-only view of the file's bytes

    def test_stored_arrays_are_shape_and_little_endian_float64(self, tmp_path):
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        network = nn.init_params(mdl.layer_specs(spec), seed=1)
        model = mdl.TrainedModel(spec, network, edge_scaler(),
                                 1.0, mdl.Regime(semi_supervised=False), {})
        stored = json.loads(mdl.save_trained_model(tmp_path / "DENSE_un.json", model).read_text())
        values = model.network.values
        # 4-16-8-16-4: 4*16+16 + 16*8+8 + 8*16+16 + 16*4+4 parameters
        assert stored["network"]["shape"] == [len(values)] == [428]
        network = base64.b64decode(stored["network"]["f8"])
        assert network == struct.pack(f"<{len(values)}d", *values)
        assert network[64 * 8 : 80 * 8] == bytes(16 * 8)  # layer 0's bias follows its 16x4 weights
        low = stored["scaler"]["min"]
        assert low["shape"] == [4]
        assert base64.b64decode(low["f8"]) == struct.pack("<4d", *edge_scaler().minimum)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(network=resized(d["network"], -1)), r"network is \(427,\)"),
            (lambda d: d.update(network=resized(d["network"], 1)), r"network is \(429,\)"),
            (lambda d: d.update(network=[0.0] * 428), "network is list"),
            (lambda d: d.update(network={"layers": []}), "network is dict"),
            (lambda d: d["scaler"]["min"].update(shape=[2, 2]), "scaler"),
            # the scaler's width is the input width: 3 inputs take 395 parameters, 0 none
            (lambda d: d.update(scaler={key: {"shape": [3], "f8": base64.b64encode(bytes(24))
                                              .decode()} for key in ("min", "max")}),
             r"network is \(428,\), the model needs an array of 395 parameters$"),
            (lambda d: d.update(scaler={key: {"shape": [0], "f8": ""} for key in ("min", "max")}),
             "input_dim must be an integer >= 1, not 0"),
            (lambda d: d.pop("format"), "older nodewatch"),
            (lambda d: d.update(format=3),
             r": store format 3, not 4: written by an older nodewatch, so it must be retrained$"),
            (lambda d: d["scaler"]["max"].update(shape=[5]), "bytes"),
            (lambda d: d["scaler"]["max"].update(f8="AAAA AAAA"), "base64"),
            (lambda d: d["scaler"].update(min={"f8": ""}), "'shape'"),
            # JSON values that Python would take as a truth value or as 1.0
            (lambda d: d["regime"].update(semi_supervised="no"),
             "semi_supervised must be true or false, not 'no'$"),
            (lambda d: d.update(max_train_error=True),
             "max_train_error must be a finite number > 0, not True$"),
        ],
        ids=["network-short", "network-long", "network-not-array", "network-object",
             "scaler-shape", "scaler-narrow", "scaler-empty", "no-format", "format-3",
             "short-payload", "not-base64", "no-shape", "regime-not-bool", "max-error-true"],
    )
    def test_damaged_trained_store_is_a_data_error_naming_the_file(self, tmp_path, edit, message):
        spec = mdl.ModelSpec(kind="dense", input_dim=4)
        network = nn.init_params(mdl.layer_specs(spec), seed=1)
        model = mdl.TrainedModel(spec, network, edge_scaler(),
                                 1.0, mdl.Regime(semi_supervised=False), {})
        path = mdl.save_trained_model(tmp_path / "DENSE_un.json", model)
        stored = json.loads(path.read_text())
        edit(stored)
        path.write_text(json.dumps(stored))
        with pytest.raises(DataError, match=message) as info:
            mdl.load_trained_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # k is the centroids' row count, so a dropped row leaves a rate over
            (lambda c, p: (c[:-1], p), r"probabilities have shape \(2,\), not \(k=1,\)"),
            (lambda c, p: (c[:, :-1], p), "columns"),
            (lambda c, p: (c, p[:-1]), "probabilities have shape"),
            (lambda c, p: (c * np.inf, p), "not finite"),
            (lambda c, p: (c, p * np.nan), "not finite"),
            (lambda c, p: (c[:0], p[:0]),
             r"centroids have shape \(0, 3\), not \(k, N\) with k >= 1"),
        ],
        ids=["centroid-row", "centroid-column", "probability", "inf-centroid", "nan-probability",
             "no-centroid"],
    )
    def test_damaged_cluster_store_is_a_data_error_naming_the_file(self, tmp_path, edit, message):
        model = mdl.train_clu_model(TestBaselineRunners().clustered_dataset(), seed=2)
        path = mdl.save_cluster_model(tmp_path / "CLU.json", model)
        stored = json.loads(path.read_text())
        entry = stored["kmeans"]
        centroids, probs = edit(model.kmeans.centroids, model.kmeans.cluster_anomaly_prob)
        for key, array in (("centroids", centroids), ("cluster_anomaly_prob", probs)):
            entry[key] = {"shape": list(array.shape),
                          "f8": base64.b64encode(array.astype("<f8").tobytes()).decode()}
        path.write_text(json.dumps(stored))
        with pytest.raises(DataError, match=message) as info:
            mdl.load_cluster_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("kind", ["dense", "ruad", "clu"])
    def test_every_stored_key_is_read(self, tmp_path, kind):
        # a key the loader does not need is one the store need not hold: deleting
        # any one, at the top level or inside an entry, must make the load fail
        if kind == "clu":
            kmeans = KMeansModel(centroids=[[0.1, 0.2], [0.8, 0.9]],
                                 cluster_anomaly_prob=[0.0, 0.5], seed=1)
            model = mdl.ClusterModel(identity_scaler(2), kmeans)
            save, load = mdl.save_cluster_model, mdl.load_cluster_model
        else:
            spec = mdl.ModelSpec(kind, 4, 3 if kind == "ruad" else 1)
            model = mdl.TrainedModel(spec, nn.init_params(mdl.layer_specs(spec), seed=1),
                                     identity_scaler(4), 1.0, mdl.Regime(semi_supervised=True),
                                     dataclasses.asdict(training_config(seed=1)))
            save, load = mdl.save_trained_model, mdl.load_trained_model
        stored = json.loads(save(tmp_path / "whole.json", model).read_text())
        keys = [(key,) for key in stored] + [
            (key, inner) for key in ("scaler", "model_spec", "regime", "kmeans")
            for inner in stored.get(key, ())
        ]
        assert len(keys) == {"clu": 8, "dense": 12, "ruad": 12}[kind]
        loaded = []
        for key in keys:
            damaged = json.loads(json.dumps(stored))
            entry = damaged
            for name in key[:-1]:
                entry = entry[name]
            del entry[key[-1]]
            path = tmp_path / f"{'.'.join(key)}.json"
            path.write_text(json.dumps(damaged))
            try:
                load(path)
            except DataError as exc:
                assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc), key
            else:
                loaded.append(".".join(key))
        assert loaded == []

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda kmeans: kmeans.update(inertia=1.0),
             r"unknown kmeans keys \['inertia'\].*retrained"),
            (lambda kmeans: kmeans.pop("seed"), r"missing kmeans keys \['seed'\]$"),
        ],
        ids=["unknown-key", "missing-key"],
    )
    def test_cluster_store_with_other_kmeans_keys_is_a_data_error_naming_the_file(
        self, tmp_path, edit, message
    ):
        model = mdl.train_clu_model(TestBaselineRunners().clustered_dataset(), seed=2)
        path = mdl.save_cluster_model(tmp_path / "CLU.json", model)
        stored = json.loads(path.read_text())
        edit(stored["kmeans"])
        path.write_text(json.dumps(stored))
        with pytest.raises(DataError, match=message) as info:
            mdl.load_cluster_model(path)
        assert str(path) in str(info.value)
