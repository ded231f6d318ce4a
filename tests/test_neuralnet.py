import copy
import gc
import json
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from nodewatch import models as mdl
from nodewatch import neuralnet as nn
from nodewatch.errors import TrainingError
from nodewatch.pipeline import make_windows

from conftest import build_dataset


def numeric_gradients(params, x, target, step=1e-5):
    """Central finite differences of the MSE loss for every entry of
    ``params.values``, as one vector laid out like it."""
    values = params.values
    grads = np.zeros_like(values)
    for idx in range(values.size):
        saved = values[idx]
        values[idx] = saved + step
        plus = nn.mse_loss(nn.forward(params, x)[0], target)
        values[idx] = saved - step
        minus = nn.mse_loss(nn.forward(params, x)[0], target)
        values[idx] = saved
        grads[idx] = (plus - minus) / (2 * step)
    return grads


def layer_arrays(params):
    """Every array of a network by '<layer index>.<field>', read from the
    layer fields."""
    arrays = {}
    for i, layer in enumerate(params.layers):
        names = ("weights", "bias") if isinstance(layer, nn.DenseLayer) else ("w", "u", "b")
        for name in names:
            arrays[f"{i}.{name}"] = getattr(layer, name)
    return arrays


def reference_lstm(layer, sequence):
    """Independent step-by-step LSTM recurrence with per-gate matrices."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    hd = layer.hidden_dim
    # gate blocks of the stacked arrays, in (input, forget, output, candidate) order
    w_i, w_f, w_o, w_g = (layer.w[k * hd : (k + 1) * hd] for k in range(4))
    u_i, u_f, u_o, u_g = (layer.u[k * hd : (k + 1) * hd] for k in range(4))
    b_i, b_f, b_o, b_g = (layer.b[k * hd : (k + 1) * hd] for k in range(4))
    h = np.zeros(hd)
    c = np.zeros(hd)
    outputs = []
    for x_t in sequence:
        i = sig(w_i @ x_t + u_i @ h + b_i)
        f = sig(w_f @ x_t + u_f @ h + b_f)
        o = sig(w_o @ x_t + u_o @ h + b_o)
        g = np.tanh(w_g @ x_t + u_g @ h + b_g)
        c = f * c + i * g
        h = o * np.tanh(c)
        outputs.append(h.copy())
    return np.array(outputs)


def windows_over_rows(rows, w):
    """Every window of W consecutive rows of an (L, N) array, gathered on
    demand by make_windows; each target is the window's last row."""
    return make_windows(build_dataset(np.zeros(len(rows)), features=rows), w)


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        specs = [nn.LstmSpec(3, 4, True), nn.LstmSpec(4, 2, False), nn.DenseSpec(2, 3)]
        a = nn.init_params(specs, seed=99)
        b = nn.init_params(specs, seed=99)
        npt.assert_array_equal(a.values, b.values)

    def test_glorot_bound_over_many_draws(self):
        limit_w = np.sqrt(6.0 / (5 + 7))
        biggest = 0.0
        for seed in range(1000):
            params = nn.init_params([nn.DenseSpec(5, 7)], seed=seed)
            biggest = max(biggest, np.abs(params.layers[0].weights).max())
        assert biggest <= limit_w
        assert biggest > 0.9 * limit_w  # the bound is actually approached

    def test_forget_gate_bias_starts_at_one(self):
        params = nn.init_params([nn.LstmSpec(3, 4)], seed=0)
        layer = params.layers[0]
        npt.assert_array_equal(layer.b[4:8], np.ones(4))
        npt.assert_array_equal(layer.b[:4], np.zeros(4))
        npt.assert_array_equal(layer.b[8:], np.zeros(8))

    def test_lstm_init_matches_per_gate_draw_order(self):
        # the seeded stream is drawn as w_i, u_i, w_f, u_f, w_o, u_o, w_g, u_g
        d, h, seed = 3, 5, 17
        rng = np.random.default_rng(seed)
        lim_w, lim_u = np.sqrt(6.0 / (d + h)), np.sqrt(6.0 / (h + h))
        w_blocks, u_blocks = [], []
        for _ in range(4):
            w_blocks.append(rng.uniform(-lim_w, lim_w, size=(h, d)))
            u_blocks.append(rng.uniform(-lim_u, lim_u, size=(h, h)))
        layer = nn.init_params([nn.LstmSpec(d, h)], seed=seed).layers[0]
        npt.assert_array_equal(layer.w, np.concatenate(w_blocks))
        npt.assert_array_equal(layer.u, np.concatenate(u_blocks))
        assert (layer.in_dim, layer.hidden_dim) == (d, h)


class TestSigmoid:
    def test_matches_expit_without_warnings(self):
        from scipy.special import expit

        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-np.inf, np.inf]])
        with np.errstate(all="raise"):
            got = nn._sigmoid(x)
        npt.assert_allclose(got, expit(x), rtol=0, atol=1e-15)
        assert got.min() >= 0.0 and got.max() <= 1.0
        npt.assert_array_equal(nn._sigmoid(np.array([0.0, -0.0])), 0.5)


class TestForward:
    def test_zero_params_sigmoid_gives_half(self):
        params = nn.init_params([nn.DenseSpec(3, 3, "sigmoid")], seed=0)
        params.layers[0].weights[:] = 0.0
        out, _ = nn.forward(params, np.zeros((1, 1, 3)))
        npt.assert_allclose(out, 0.5)

    def test_zero_params_relu_gives_zero(self):
        params = nn.init_params([nn.DenseSpec(3, 3, "relu")], seed=0)
        params.layers[0].weights[:] = 0.0
        out, _ = nn.forward(params, np.zeros((1, 1, 3)))
        npt.assert_array_equal(out, 0.0)

    def test_matches_reference_recurrence(self, rng):
        params = nn.init_params([nn.LstmSpec(3, 2, return_sequence=True)], seed=5)
        seq = rng.normal(size=(4, 3))
        ours, _ = nn.forward(params, seq[None])
        expected = reference_lstm(params.layers[0], seq)
        npt.assert_allclose(ours[0], expected, atol=1e-10)

    @pytest.mark.parametrize("return_sequence", [True, False])
    def test_batch_matches_reference_within_1e12(self, rng, return_sequence):
        params = nn.init_params([nn.LstmSpec(5, 4, return_sequence)], seed=21)
        layer = params.layers[0]
        layer.b[:] = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(6, 7, 5))
        ours, _ = nn.forward(params, x)
        expected = np.stack([reference_lstm(layer, seq) for seq in x])
        if not return_sequence:
            expected = expected[:, -1]
        assert ours.shape == expected.shape
        npt.assert_allclose(ours, expected, rtol=0, atol=1e-12)

    def test_stacked_network_matches_reference_chain(self, rng):
        specs = [
            nn.LstmSpec(3, 2, return_sequence=True),
            nn.LstmSpec(2, 2, return_sequence=False),
            nn.DenseSpec(2, 3, "sigmoid"),
        ]
        params = nn.init_params(specs, seed=11)
        seq = rng.normal(size=(2, 3))
        out, _ = nn.forward(params, seq[None])

        hidden1 = reference_lstm(params.layers[0], seq)
        hidden2 = reference_lstm(params.layers[1], hidden1)
        pre = params.layers[2].weights @ hidden2[-1] + params.layers[2].bias
        npt.assert_allclose(out, [1.0 / (1.0 + np.exp(-pre))], atol=1e-10)

    def test_window_of_one_has_no_recurrence_effect(self, rng):
        specs = [
            nn.LstmSpec(3, 2, return_sequence=True),
            nn.LstmSpec(2, 2, return_sequence=False),
            nn.DenseSpec(2, 3, "sigmoid"),
        ]
        params = nn.init_params(specs, seed=3)
        row = rng.normal(size=(1, 3))
        out, _ = nn.forward(params, row[None])
        hidden1 = reference_lstm(params.layers[0], row)
        hidden2 = reference_lstm(params.layers[1], hidden1)
        pre = params.layers[2].weights @ hidden2[-1] + params.layers[2].bias
        npt.assert_allclose(out, [1.0 / (1.0 + np.exp(-pre))], atol=1e-12)

    def test_forward_is_pure(self, rng):
        params = nn.init_params(
            [nn.LstmSpec(4, 3, False), nn.DenseSpec(3, 4, "sigmoid")], seed=1
        )
        x = rng.normal(size=(2, 6, 4))
        first, _ = nn.forward(params, x)
        second, _ = nn.forward(params, x)
        npt.assert_array_equal(first, second)

    def test_hidden_state_size_constant_across_steps(self, rng):
        params = nn.init_params([nn.LstmSpec(3, 5, return_sequence=True)], seed=2)
        for w in (1, 2, 7):
            out, space = nn.forward(params, rng.normal(size=(1, w, 3)))
            assert out.shape == (1, w, 5)
            # step-major: (W + 1, H, B), the zero state first
            cache = space.layers[0]
            assert cache.hidden.shape == (w + 1, 5, 1)
            assert cache.cells.shape == (w + 1, 5, 1)


class TestBackward:
    def test_zero_loss_means_zero_gradients(self):
        params = nn.init_params([nn.DenseSpec(2, 2, "sigmoid")], seed=0)
        x = np.array([[[0.3, 0.7]]])
        out, caches = nn.forward(params, x)
        grads = nn.backward(params, caches, out)
        npt.assert_array_equal(grads.values, 0.0)

    @pytest.mark.parametrize(
        "specs",
        [
            [nn.DenseSpec(3, 4, "relu"), nn.DenseSpec(4, 3, "sigmoid")],
            [nn.DenseSpec(4, 2, "sigmoid")],
            [nn.LstmSpec(3, 4, return_sequence=False), nn.DenseSpec(4, 3, "sigmoid")],
            [
                nn.LstmSpec(4, 3, return_sequence=True),
                nn.LstmSpec(3, 2, return_sequence=False),
                nn.DenseSpec(2, 3, "relu"),
                nn.DenseSpec(3, 4, "sigmoid"),
            ],
            # the two stacks the models train
            mdl.layer_specs(mdl.ModelSpec("dense", 3)),
            mdl.layer_specs(mdl.ModelSpec("ruad", 3, 3)),
        ],
    )
    def test_gradients_match_finite_differences(self, specs, rng):
        params = nn.init_params(specs, seed=int(rng.integers(1 << 30)))
        w = 3 if isinstance(specs[0], nn.LstmSpec) else 1
        x = rng.normal(size=(2, w, specs[0].in_dim))
        target = rng.uniform(size=(2, params.layers[-1].out_dim))
        _, caches = nn.forward(params, x)
        analytic = nn.backward(params, caches, target)
        numeric = numeric_gradients(params, x, target)
        npt.assert_allclose(analytic.values, numeric, rtol=1e-4, atol=1e-7)

    def test_duplicated_batch_keeps_mean_gradient(self, rng):
        params = nn.init_params(
            [nn.LstmSpec(3, 2, False), nn.DenseSpec(2, 3, "sigmoid")], seed=4
        )
        x = rng.normal(size=(1, 2, 3))
        t = rng.normal(size=(1, 3))
        _, caches = nn.forward(params, x)
        single = nn.backward(params, caches, t)
        doubled_x = np.concatenate([x, x])
        doubled_t = np.concatenate([t, t])
        _, caches2 = nn.forward(params, doubled_x)
        double = nn.backward(params, caches2, doubled_t)
        npt.assert_allclose(single.values, double.values, atol=1e-12)

    def test_gradients_are_views_of_a_fresh_vector(self, rng):
        specs = mdl.layer_specs(mdl.ModelSpec("ruad", 3, 3))
        params = nn.init_params(specs, seed=7)
        x = rng.normal(size=(2, 3, 3))
        _, caches = nn.forward(params, x)
        first = nn.backward(params, caches, rng.uniform(size=(2, 3)))
        arrays = layer_arrays(first)
        assert len(arrays) == 10
        assert all(np.shares_memory(arr, first.values) for arr in arrays.values())
        assert first.values.shape == params.values.shape
        assert not np.shares_memory(first.values, params.values)
        kept = first.values.copy()
        _, caches = nn.forward(params, x)
        second = nn.backward(params, caches, rng.uniform(size=(2, 3)))
        assert not np.shares_memory(second.values, first.values)
        npt.assert_array_equal(first.values, kept)  # the second call left it alone
        assert not np.array_equal(second.values, kept)


def as_dtype(params, dtype):
    """The network of ``params`` with its parameter vector cast to ``dtype``."""
    return nn.NetworkParams(params.specs, params.values.astype(dtype))


class TestPrecision:
    @pytest.mark.parametrize("kind, window", [("ruad", 10), ("ruad", 40), ("dense", 1)])
    def test_float32_gradients_agree_with_float64_ones(self, kind, window, rng):
        """On the same parameters and batch (64 windows of 32 features), the
        float32 gradient lies within 1e-6 of the float64 one's largest entry;
        over four seeds each, these shapes measured 1.2-3.6e-7."""
        params = nn.init_params(mdl.layer_specs(mdl.ModelSpec(kind, 32, window)), seed=5)
        x, target = rng.uniform(size=(64, window, 32)), rng.uniform(size=(64, 32))
        exact = nn.backward(params, nn.forward(params, x)[1], target).values
        single = as_dtype(params, np.float32)
        _, caches = nn.forward(single, x.astype(np.float32))
        close = nn.backward(single, caches, target.astype(np.float32)).values
        assert close.dtype == np.float32
        assert np.abs(close - exact).max() <= 1e-6 * np.abs(exact).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, window", [("ruad", 4), ("dense", 1)])
    def test_a_workspace_computes_in_the_dtype_of_its_parameters(self, kind, window, dtype, rng):
        """A float64 input is cast to the parameters' dtype, and the output,
        the gradient and every buffer of the workspace are of it."""
        params = as_dtype(nn.init_params(mdl.layer_specs(mdl.ModelSpec(kind, 6, window)), 2), dtype)
        out, space = nn.forward(params, rng.uniform(size=(8, window, 6)))
        grads = nn.backward(params, space, rng.uniform(size=(8, 6)).astype(dtype))
        assert out.dtype == grads.values.dtype == space.dtype == dtype
        assert {flat.dtype for flat in space.pool.values()} == {np.dtype(dtype)}


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = nn.init_params([nn.DenseSpec(2, 2)], seed=0)
        before = copy.deepcopy(params)
        state = nn.init_adam(params, learning_rate=1e-3)
        grads = nn.NetworkParams(params.specs, np.zeros(6))
        nn.adam_step(params, grads, state)
        npt.assert_array_equal(params.layers[0].weights, before.layers[0].weights)

    def test_first_step_moves_by_learning_rate_times_sign(self):
        params = nn.init_params([nn.DenseSpec(1, 1)], seed=0)
        before = params.layers[0].weights.copy()
        state = nn.init_adam(params, learning_rate=1e-3)
        grads = nn.NetworkParams(params.specs, np.array([0.37, -2.1]))  # weights, then bias
        nn.adam_step(params, grads, state)
        npt.assert_allclose(
            params.layers[0].weights, before - 1e-3 * np.sign(0.37), rtol=1e-6
        )
        npt.assert_allclose(params.layers[0].bias, 0.0 + 1e-3, rtol=1e-6)

    def test_flat_update_is_bit_identical_to_per_array_reference(self, rng):
        specs = [
            nn.LstmSpec(3, 4, return_sequence=True),
            nn.LstmSpec(4, 2, return_sequence=False),
            nn.DenseSpec(2, 5, "relu"),
            nn.DenseSpec(5, 3, "sigmoid"),
        ]
        params = nn.init_params(specs, seed=6)
        lr = 1e-2
        state = nn.init_adam(params, learning_rate=lr)
        ref = {key: arr.copy() for key, arr in layer_arrays(params).items()}
        m = {key: np.zeros_like(arr) for key, arr in ref.items()}
        v = {key: np.zeros_like(arr) for key, arr in ref.items()}
        for t in range(1, 6):
            _, caches = nn.forward(params, rng.normal(size=(4, 3, 3)))
            grads = nn.backward(params, caches, rng.uniform(size=(4, 3)))
            nn.adam_step(params, grads, state)
            for key, g in layer_arrays(grads).items():
                m[key] = m[key] * nn.ADAM_BETA1 + (1.0 - nn.ADAM_BETA1) * g
                v[key] = v[key] * nn.ADAM_BETA2 + (1.0 - nn.ADAM_BETA2) * (g * g)
                m_hat = m[key] / (1.0 - nn.ADAM_BETA1**t)
                v_hat = v[key] / (1.0 - nn.ADAM_BETA2**t)
                ref[key] -= lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON)
            for key, arr in layer_arrays(params).items():
                npt.assert_array_equal(arr, ref[key], err_msg=f"step {t}, {key}")

    def test_converges_on_scalar_quadratic(self):
        # minimize (w - 0.6)^2 through the optimizer interface alone
        params = nn.init_params([nn.DenseSpec(1, 1)], seed=1)
        params.layers[0].weights[:] = 0.0
        state = nn.init_adam(params, learning_rate=1e-2)
        target = 0.6
        for _ in range(200):
            w = params.layers[0].weights[0, 0]
            grads = nn.NetworkParams(params.specs, np.array([2 * (w - target), 0.0]))
            nn.adam_step(params, grads, state)
        assert abs(params.layers[0].weights[0, 0] - target) < 1e-2


class TestTraining:
    def sinusoid_windows(self, count=20, w=5, n=3):
        t = np.arange(count + w)
        base = 0.5 + 0.4 * np.sin(2 * np.pi * t / 24.0)
        rows = np.stack([base * (0.5 + 0.2 * j) for j in range(n)], axis=1)
        # the first count + w - 1 rows hold exactly count windows
        windows = windows_over_rows(rows[: count + w - 1], w)
        assert len(windows) == count
        return windows

    def test_overfits_noiseless_sinusoid(self):
        windows = self.sinusoid_windows()
        params = nn.init_params(
            [
                nn.LstmSpec(3, 8, return_sequence=True),
                nn.LstmSpec(8, 4, return_sequence=False),
                nn.DenseSpec(4, 8, "relu"),
                nn.DenseSpec(8, 3, "sigmoid"),
            ],
            seed=0,
        )
        cfg = nn.TrainingConfig(
            learning_rate=5e-3, batch_size=32, max_epochs=600,
            early_stop_patience=600, seed=0,
        )
        trained, history = nn.train_autoencoder(params, windows, cfg)
        assert min(history) < 1e-3

    def test_same_seed_same_history(self):
        windows = self.sinusoid_windows(count=12)
        cfg = nn.TrainingConfig(max_epochs=5, seed=123)
        specs = [nn.LstmSpec(3, 4, False), nn.DenseSpec(4, 3, "sigmoid")]
        _, h1 = nn.train_autoencoder(nn.init_params(specs, 9), windows, cfg)
        _, h2 = nn.train_autoencoder(nn.init_params(specs, 9), windows, cfg)
        assert h1 == h2

    def test_zero_learning_rate_freezes_loss(self):
        windows = self.sinusoid_windows(count=12)
        cfg = nn.TrainingConfig(learning_rate=0.0, max_epochs=8, seed=1)
        specs = [nn.LstmSpec(3, 4, False), nn.DenseSpec(4, 3, "sigmoid")]
        _, history = nn.train_autoencoder(nn.init_params(specs, 2), windows, cfg)
        assert len(set(history)) == 1

    def test_divergence_is_surfaced(self):
        windows = self.sinusoid_windows(count=8, w=1)
        params = nn.init_params([nn.DenseSpec(3, 4), nn.DenseSpec(4, 3)], seed=0)
        # positive inputs through positive weights: the loss overflows at once
        params.layers[0].weights[:] = 1e200
        params.layers[1].weights[:] = 1.0
        cfg = nn.TrainingConfig(max_epochs=3, seed=0)
        with pytest.raises(TrainingError, match="diverged"):
            nn.train_autoencoder(params, windows, cfg)

    def test_returns_best_epoch_parameters(self):
        windows = self.sinusoid_windows(count=12, w=1)
        cfg = nn.TrainingConfig(max_epochs=30, early_stop_patience=30, seed=5)
        specs = [nn.DenseSpec(3, 2, "relu"), nn.DenseSpec(2, 3, "sigmoid")]
        trained, history = nn.train_autoencoder(nn.init_params(specs, 5), windows, cfg)
        out, _ = nn.forward(trained, windows.gather(slice(None)))
        final_loss = nn.mse_loss(out, windows.targets)
        # the returned parameters come from the end of the best epoch, whose
        # full-set loss cannot be worse than the best running epoch mean by
        # more than optimization noise
        assert final_loss <= min(history) * 1.5 + 1e-9


    def test_best_epoch_restore_reaches_the_layers(self):
        windows = self.sinusoid_windows(count=24, w=3)
        cfg = nn.TrainingConfig(max_epochs=12, early_stop_patience=12, seed=0,
                                learning_rate=0.01, batch_size=8)
        specs = mdl.layer_specs(mdl.ModelSpec("ruad", 3, 3))
        trained, history = nn.train_autoencoder(nn.init_params(specs, 0), windows, cfg)
        assert np.argmin(history) < len(history) - 1  # the restore undoes later epochs
        rebuilt = nn.NetworkParams(specs, trained.values.copy())
        every = windows.gather(slice(None))
        npt.assert_array_equal(nn.forward(trained, every)[0], nn.forward(rebuilt, every)[0])


def bits(array):
    """The bytes of an array's values, in C order: equal bytes are equal bits."""
    return np.ascontiguousarray(array).tobytes()


def pool_bytes(space):
    """The bytes of every buffer a workspace holds."""
    return sum(flat.nbytes for flat in space.pool.values())


# What the engine held at the shapes of TestWorkspace's memory tests (RUAD over
# 32 features, windows of 10 rows) when each workspace sized every buffer up
# front from tables, for its largest batch. Training, batches of 64: 2,222,080
# bytes of table-sized buffers, plus 31,488 of scaled LSTM weights, 36,992 of
# gradient vector and 16,384 of loss gradient, which it made outside the
# tables and which the pool now holds too. Scoring, batches of SCORE_BATCH
# (128): 2,228,224 bytes of buffers plus the same 31,488 of scaled weights.
TABLE_SIZED_TRAINING_BYTES = 2_222_080 + 31_488 + 36_992 + 16_384
TABLE_SIZED_SCORING_BYTES = 2_228_224 + 31_488


class TestWorkspace:
    @pytest.mark.parametrize("kind, window", [("ruad", 10), ("dense", 1)])
    def test_a_reused_workspace_gives_the_bits_of_fresh_ones(self, kind, window, rng):
        """Batches of 64, 3, 64, 1 and 128 windows, run one after another in
        one workspace, give the outputs and gradients, bit for bit, of passes
        that each run in a fresh workspace of their own size."""
        specs = mdl.layer_specs(mdl.ModelSpec(kind, 32, window))
        params = nn.init_params(specs, seed=4)
        space = nn.Workspace(params.values.dtype)
        for batch in (64, 3, 64, 1, 128):
            x = rng.uniform(size=(batch, window, 32))
            target = rng.uniform(size=(batch, 32))
            fresh_out, fresh = nn.forward(params, x)
            fresh_grads = nn.backward(params, fresh, target)
            out, caches = nn.forward(params, x, space)
            grads = nn.backward(params, caches, target)
            assert caches is space and grads is space.grads and fresh is not space
            assert out.shape == fresh_out.shape == (batch, 32)
            assert bits(out) == bits(fresh_out), batch
            assert bits(grads.values) == bits(fresh_grads.values), batch

    def test_a_run_gives_the_same_model_after_another_network_trained(self, rng):
        """A RUAD run whose last batch holds 3 windows, trained again after a
        dense network of another width, gives the same parameters and history
        bit for bit: nothing of one run's workspace outlives it."""
        windows = windows_over_rows(rng.uniform(size=(70, 6)), 4)
        assert len(windows) % 8 == 3
        cfg = nn.TrainingConfig(learning_rate=0.01, batch_size=8, max_epochs=3, seed=2)
        ruad = mdl.layer_specs(mdl.ModelSpec("ruad", 6, 4))
        first, first_history = nn.train_autoencoder(nn.init_params(ruad, 1), windows, cfg)
        dense = mdl.layer_specs(mdl.ModelSpec("dense", 5))
        nn.train_autoencoder(
            nn.init_params(dense, 1), windows_over_rows(rng.uniform(size=(37, 5)), 1), cfg
        )
        second, second_history = nn.train_autoencoder(nn.init_params(ruad, 1), windows, cfg)
        assert bits(second.values) == bits(first.values)
        assert second_history == first_history

    def test_an_epoch_after_the_first_allocates_only_its_batches(self, monkeypatch, rng):
        """After a run's first epoch (which builds the workspace, the views of
        both batch sizes and Adam's scratch), a further epoch's traced
        allocation peak stays under twice one gathered batch: 64 windows of
        10 rows of 32 float32s, 80 KiB, so 160 KiB. The batch's targets and
        the loss's temporaries are (64, 32) float32s, 8 KiB each; this epoch
        peaks near 118 KB (115.5 KiB). An engine that allocates its caches,
        gradients and Adam's temporaries per batch peaks near 1.15 MB here."""
        windows = windows_over_rows(rng.uniform(size=(700, 32)), 10)
        assert len(windows) == 691  # ten full batches of 64 and one of 51
        cfg = nn.TrainingConfig(learning_rate=0.01, batch_size=64, max_epochs=2, seed=3)
        batches_per_epoch = 11
        gathered = 64 * 10 * 32 * 4
        adam_step, steps, start = nn.adam_step, [], []

        def marking_adam_step(params, grads, state):
            adam_step(params, grads, state)
            steps.append(None)
            if len(steps) == batches_per_epoch:  # the first epoch is over
                tracemalloc.reset_peak()
                start.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(nn, "adam_step", marking_adam_step)
        params = nn.init_params(mdl.layer_specs(mdl.ModelSpec("ruad", 32, 10)), seed=3)
        tracemalloc.start()
        try:
            nn.train_autoencoder(params, windows, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(steps) == 2 * batches_per_epoch
        assert peak - start[0] < 2 * gathered

    def train_in_workspace(self, monkeypatch, windows, batch_size=64):
        """Train a RUAD network on ``windows`` for one epoch; return it and
        the workspace its batches ran in, which this keeps alive."""
        seen, backward = [], nn.backward

        def recording_backward(params, caches, target):
            seen.append(caches)
            return backward(params, caches, target)

        monkeypatch.setattr(nn, "backward", recording_backward)
        cfg = nn.TrainingConfig(learning_rate=0.01, batch_size=batch_size, max_epochs=1, seed=2)
        specs = mdl.layer_specs(mdl.ModelSpec("ruad", windows.rows.shape[1], windows.window_length))
        params, _ = nn.train_autoencoder(nn.init_params(specs, 1), windows, cfg)
        monkeypatch.setattr(nn, "backward", backward)
        assert all(caches is seen[0] for caches in seen)
        return params, seen[0]

    def test_a_ragged_last_batch_reuses_the_full_batchs_memory(self, monkeypatch, rng):
        """A run whose last batch holds 3 windows ends with buffers of the
        bytes of a run of full batches only, and no more than the engine
        held with every buffer sized up front."""
        rows = rng.uniform(size=(140, 32))
        _, full = self.train_in_workspace(monkeypatch, windows_over_rows(rows[:137], 10))
        _, ragged = self.train_in_workspace(monkeypatch, windows_over_rows(rows, 10))
        assert list(full.spaces) == [(64, 10, 32)]
        assert list(ragged.spaces) == [(64, 10, 32), (3, 10, 32)]
        assert pool_bytes(ragged) == pool_bytes(full)
        assert pool_bytes(ragged) <= TABLE_SIZED_TRAINING_BYTES

    def test_the_lstm_layers_share_their_backward_scratch(self, monkeypatch, rng):
        """At every batch size of a run, the second LSTM layer's backward
        buffers lie in the same memory as the first's."""
        _, space = self.train_in_workspace(
            monkeypatch, windows_over_rows(rng.uniform(size=(140, 32)), 10)
        )
        for first, second, *_ in space.spaces.values():
            for name in ("factor", "d_pre", "dc_dh", "dh"):
                assert np.shares_memory(getattr(first, name), getattr(second, name)), name

    def test_every_view_a_run_takes_lies_in_the_pooled_array(self, monkeypatch, rng):
        """At 6 features, narrower than the first LSTM layer's 16 units, and
        with a last batch of 3 windows, every view a training run takes lies
        in the array its name holds in the pool at the end: no view pins an
        array that a later take outgrew."""
        taken, take = [], nn.Workspace.take

        def recording_take(space, name, shape):
            taken.append((name, take(space, name, shape)))
            return taken[-1][1]

        monkeypatch.setattr(nn.Workspace, "take", recording_take)
        windows = windows_over_rows(rng.uniform(size=(70, 6)), 4)
        assert len(windows) % 8 == 3
        _, space = self.train_in_workspace(monkeypatch, windows, batch_size=8)
        assert {name for name, _ in taken} == set(space.pool)
        for name, view in taken:
            assert np.shares_memory(view, space.pool[name]), name

    @pytest.mark.parametrize("kind, window", [("ruad", 10), ("dense", 1)])
    def test_a_forward_pass_takes_no_buffer(self, kind, window, monkeypatch, rng):
        """Once a batch shape's spaces exist, forward passes of that shape,
        here of 64 windows and of 3, take no buffer from the workspace."""
        params = nn.init_params(mdl.layer_specs(mdl.ModelSpec(kind, 32, window)), seed=4)
        space = nn.Workspace(params.values.dtype)
        batches = [rng.uniform(size=(batch, window, 32)) for batch in (64, 3)]
        for x in batches:
            nn.forward(params, x, space)
        taken, take = [], nn.Workspace.take

        def counting_take(workspace, name, shape):
            taken.append(name)
            return take(workspace, name, shape)

        monkeypatch.setattr(nn.Workspace, "take", counting_take)
        for x in batches:
            nn.forward(params, x, space)
        assert taken == []

    def test_a_scoring_workspace_holds_no_backward_buffer(self, monkeypatch, rng):
        """The workspace of a scoring call holds no gradient and no buffer of
        a backward pass, and no more than the engine held with every buffer
        sized up front; a backward pass run in it takes every buffer it
        writes anew."""
        windows = windows_over_rows(rng.uniform(size=(140, 32)), 10)
        params, _ = self.train_in_workspace(monkeypatch, windows)
        made, workspace = [], nn.Workspace

        def recording_workspace(dtype):
            made.append(workspace(dtype))
            return made[-1]

        monkeypatch.setattr(nn, "Workspace", recording_workspace)
        mdl.reconstruction_errors(params, windows)
        (scoring,) = made
        assert scoring.grads is None
        assert all(space.d_pre is None for spaces in scoring.spaces.values() for space in spaces)
        assert pool_bytes(scoring) <= TABLE_SIZED_SCORING_BYTES
        scored = list(scoring.pool.values())
        x = windows.gather(slice(0, mdl.SCORE_BATCH))
        nn.forward(params, x, scoring)
        grads = nn.backward(params, scoring, windows.targets[: mdl.SCORE_BATCH])
        written = [grads.values] + [space.d_pre for space in scoring.layers]
        assert not any(np.shares_memory(a, b) for a in written for b in scored)

    def test_a_training_workspace_dies_with_its_run(self, monkeypatch, rng):
        """With the garbage collector off, the training workspace is freed
        when train_autoencoder returns: no reference cycle holds it into the
        scoring that follows."""
        made, workspace = [], nn.Workspace

        def recording_workspace(dtype):
            space = workspace(dtype)
            made.append(weakref.ref(space))
            return space

        monkeypatch.setattr(nn, "Workspace", recording_workspace)
        windows = windows_over_rows(rng.uniform(size=(70, 6)), 4)
        cfg = nn.TrainingConfig(learning_rate=0.01, batch_size=8, max_epochs=2, seed=2)
        specs = mdl.layer_specs(mdl.ModelSpec("ruad", 6, 4))
        gc.disable()
        try:
            nn.train_autoencoder(nn.init_params(specs, 1), windows, cfg)
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()


class TestParameterVector:
    @pytest.mark.parametrize("kind, window", [("dense", 1), ("ruad", 3)])
    def test_layer_arrays_tile_the_vector_in_layer_order(self, kind, window):
        specs = mdl.layer_specs(mdl.ModelSpec(kind, 5, window))
        params = nn.init_params(specs, seed=2)
        values = params.values
        assert values.shape == (nn.parameter_count(specs),) and values.dtype == np.float64
        arrays = list(layer_arrays(params).values())
        assert all(np.shares_memory(arr, values) for arr in arrays)
        assert sum(arr.size for arr in arrays) == values.size
        # numbering every slot shows each array is the next run of values, in order
        values[...] = np.arange(values.size)
        npt.assert_array_equal(np.concatenate([arr.ravel() for arr in arrays]), values)
        shapes = []
        for spec in specs:
            if isinstance(spec, nn.DenseSpec):
                shapes += [(spec.out_dim, spec.in_dim), (spec.out_dim,)]
            else:
                gates = 4 * spec.hidden_dim
                shapes += [(gates, spec.in_dim), (gates, spec.hidden_dim), (gates,)]
        assert [arr.shape for arr in arrays] == shapes


class TestSerialization:
    def test_json_round_trip_preserves_parameters(self, rng):
        specs = [
            nn.LstmSpec(3, 4, return_sequence=True),
            nn.LstmSpec(4, 2, return_sequence=False),
            nn.DenseSpec(2, 3, "relu"),
        ]
        params = nn.init_params(specs, seed=8)
        stored = json.loads(json.dumps(params.values.tolist()))
        clone = nn.NetworkParams(specs, np.array(stored))
        npt.assert_array_equal(clone.values, params.values)
        x = rng.normal(size=(2, 4, 3))
        npt.assert_array_equal(nn.forward(params, x)[0], nn.forward(clone, x)[0])
