"""Minimal deterministic neural-network engine on numpy.

Supports exactly what the autoencoders need: dense layers (relu / sigmoid /
linear), LSTM layers with optional sequence output, mean-squared-error loss
with analytically derived gradients (backpropagation through time for the
recurrent layers), and an adaptive-moment optimizer. Everything is seeded
and pure numpy, so a training run is bit-reproducible on a given machine.

Inputs are batch-first: a single sequence is (W, N); batches are (B, W, N).
Gate order throughout is (input, forget, output, candidate).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingError

ACTIVATIONS = ("relu", "sigmoid", "linear")
GATES = ("input", "forget", "output", "candidate")

# Adam's standard moment decay rates and denominator guard (Kingma & Ba)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


# ---------------------------------------------------------------------------
# layer specs and parameters


@dataclass(frozen=True)
class DenseSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"


@dataclass(frozen=True)
class LstmSpec:
    in_dim: int
    hidden_dim: int
    return_sequence: bool = True


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [("weights", self.weights), ("bias", self.bias)]

    def to_dict(self) -> dict:
        return {
            "type": "dense",
            "activation": self.activation,
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }


@dataclass
class LstmLayer:
    """Standard LSTM cell; each array stacks the four gates in GATES order."""

    w: np.ndarray  # (4*hidden, in) input weights
    u: np.ndarray  # (4*hidden, hidden) recurrent weights
    b: np.ndarray  # (4*hidden,)
    return_sequence: bool

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // 4

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [("w", self.w), ("u", self.u), ("b", self.b)]

    def to_dict(self) -> dict:
        arrays = {name: arr.tolist() for name, arr in self.param_items()}
        return {"type": "lstm", "return_sequence": self.return_sequence, **arrays}


Layer = DenseLayer | LstmLayer
LayerSpec = DenseSpec | LstmSpec


@dataclass
class NetworkParams:
    layers: list[Layer] = field(default_factory=list)

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Flat (key, array) pairs; keys are '<layer_idx>.<name>'."""
        items = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.param_items():
                items.append((f"{i}.{name}", arr))
        return items

    def to_dict(self) -> dict:
        return {"layers": [layer.to_dict() for layer in self.layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkParams":
        layers: list[Layer] = []
        for ld in d["layers"]:
            if ld["type"] == "dense":
                layers.append(
                    DenseLayer(
                        weights=np.array(ld["weights"], dtype=np.float64),
                        bias=np.array(ld["bias"], dtype=np.float64),
                        activation=ld["activation"],
                    )
                )
            elif ld["type"] == "lstm":
                if "w" not in ld:
                    raise DataError(
                        "LSTM layer has no gate-stacked w/u/b: the store was written "
                        "by an older nodewatch and must be retrained"
                    )
                arrays = {k: np.array(ld[k], dtype=np.float64) for k in ("w", "u", "b")}
                layers.append(LstmLayer(return_sequence=ld["return_sequence"], **arrays))
            else:
                raise DataError(f"unknown layer type {ld['type']!r}")
        return cls(layers=layers)


def validate_network(params: NetworkParams) -> None:
    """Check adjacent layer dimensions and post-recurrent layout."""
    if not params.layers:
        raise DataError("network has no layers")
    sequence_domain = True  # whether the running activation is (B, W, ·)
    prev_dim: int | None = None
    for i, layer in enumerate(params.layers):
        if prev_dim is not None and layer.in_dim != prev_dim:
            raise DataError(
                f"layer {i} expects input width {layer.in_dim}, got {prev_dim}"
            )
        if isinstance(layer, LstmLayer):
            if not sequence_domain:
                raise DataError(f"layer {i}: LSTM cannot follow a vector-valued layer")
            sequence_domain = layer.return_sequence
            prev_dim = layer.hidden_dim
        else:
            if layer.activation not in ACTIVATIONS:
                raise DataError(f"layer {i}: unknown activation {layer.activation!r}")
            prev_dim = layer.out_dim
            # dense layers here only ever see vectors (W=1 inputs are squeezed)
            sequence_domain = False


def init_params(specs: list[LayerSpec], seed: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1.0."""
    rng = np.random.default_rng(seed)

    def glorot(rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(rows, cols))

    layers: list[Layer] = []
    for spec in specs:
        if isinstance(spec, DenseSpec):
            if spec.in_dim < 1 or spec.out_dim < 1:
                raise DataError(f"dense layer has zero width: {spec}")
            layers.append(
                DenseLayer(
                    weights=glorot(spec.out_dim, spec.in_dim, spec.in_dim, spec.out_dim),
                    bias=np.zeros(spec.out_dim),
                    activation=spec.activation,
                )
            )
        elif isinstance(spec, LstmSpec):
            if spec.in_dim < 1 or spec.hidden_dim < 1:
                raise DataError(f"lstm layer has zero width: {spec}")
            h, d = spec.hidden_dim, spec.in_dim
            # the seeded stream draws w then u for each gate in turn
            draws = [(glorot(h, d, d, h), glorot(h, h, h, h)) for _ in GATES]
            b = np.zeros(4 * h)
            b[h : 2 * h] = 1.0
            layers.append(
                LstmLayer(
                    w=np.concatenate([w for w, _ in draws]),
                    u=np.concatenate([u for _, u in draws]),
                    b=b,
                    return_sequence=spec.return_sequence,
                )
            )
        else:
            raise DataError(f"unknown layer spec {spec!r}")
    params = NetworkParams(layers=layers)
    validate_network(params)
    return params


# ---------------------------------------------------------------------------
# forward / backward


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[neg])
    out[neg] = ex / (1.0 + ex)
    return out


def _dense_forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, dict]:
    pre = x @ layer.weights.T + layer.bias
    if layer.activation == "relu":
        out = np.maximum(pre, 0.0)
    elif layer.activation == "sigmoid":
        out = _sigmoid(pre)
    else:
        out = pre
    return out, {"x": x, "out": out}


def _dense_backward(
    layer: DenseLayer, cache: dict, d_out: np.ndarray
) -> tuple[dict, np.ndarray]:
    out = cache["out"]
    if layer.activation == "relu":
        d_pre = d_out * (out > 0.0)
    elif layer.activation == "sigmoid":
        d_pre = d_out * out * (1.0 - out)
    else:
        d_pre = d_out
    grads = {"weights": d_pre.T @ cache["x"], "bias": d_pre.sum(axis=0)}
    return grads, d_pre @ layer.weights


def _lstm_forward(layer: LstmLayer, x: np.ndarray) -> tuple[np.ndarray, dict]:
    batch, steps, in_dim = x.shape
    h_dim = layer.hidden_dim

    pre_x = (x.reshape(batch * steps, in_dim) @ layer.w.T).reshape(batch, steps, 4 * h_dim)
    gates = np.empty((batch, steps, 4 * h_dim))
    cells = np.empty((batch, steps + 1, h_dim))
    hidden = np.empty((batch, steps + 1, h_dim))
    tanh_c = np.empty((batch, steps, h_dim))
    cells[:, 0] = 0.0
    hidden[:, 0] = 0.0

    for t in range(steps):
        a = pre_x[:, t] + hidden[:, t] @ layer.u.T + layer.b
        gates[:, t, : 3 * h_dim] = _sigmoid(a[:, : 3 * h_dim])
        gates[:, t, 3 * h_dim :] = np.tanh(a[:, 3 * h_dim :])
        i, f, o, g = gates[:, t].reshape(batch, 4, h_dim).swapaxes(0, 1)
        c = f * cells[:, t] + i * g
        tc = np.tanh(c)
        cells[:, t + 1] = c
        tanh_c[:, t] = tc
        hidden[:, t + 1] = o * tc

    out = hidden[:, 1:] if layer.return_sequence else hidden[:, -1]
    cache = {"x": x, "gates": gates, "cells": cells, "hidden": hidden, "tanh_c": tanh_c}
    return out, cache


def _lstm_backward(
    layer: LstmLayer, cache: dict, d_out: np.ndarray
) -> tuple[dict, np.ndarray]:
    x = cache["x"]
    batch, steps, in_dim = x.shape
    h_dim = layer.hidden_dim
    gates, cells, hidden, tanh_c = (
        cache["gates"],
        cache["cells"],
        cache["hidden"],
        cache["tanh_c"],
    )

    d_all = np.empty((batch, steps, 4 * h_dim))
    d_u = np.zeros_like(layer.u)
    dh_next = np.zeros((batch, h_dim))
    dc_next = np.zeros((batch, h_dim))
    for t in range(steps - 1, -1, -1):
        dh = dh_next.copy()
        if layer.return_sequence:
            dh += d_out[:, t]
        elif t == steps - 1:
            dh += d_out
        i, f, o, g = gates[:, t].reshape(batch, 4, h_dim).swapaxes(0, 1)
        tc = tanh_c[:, t]

        d_o = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        d_i = dc * g
        d_f = dc * cells[:, t]
        d_g = dc * i
        dc_next = dc * f

        da = d_all[:, t]
        da[:, :h_dim] = d_i * i * (1.0 - i)
        da[:, h_dim : 2 * h_dim] = d_f * f * (1.0 - f)
        da[:, 2 * h_dim : 3 * h_dim] = d_o * o * (1.0 - o)
        da[:, 3 * h_dim :] = d_g * (1.0 - g * g)

        d_u += da.T @ hidden[:, t]
        dh_next = da @ layer.u

    flat = d_all.reshape(batch * steps, 4 * h_dim)
    grads = {
        "w": flat.T @ x.reshape(batch * steps, in_dim),
        "u": d_u,
        "b": flat.sum(axis=0),
    }
    return grads, (flat @ layer.w).reshape(batch, steps, in_dim)


def forward(params: NetworkParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the network on one sequence (W, N) or a batch (B, W, N).

    Returns the reconstruction — (N,) for a single sequence, (B, N) for a
    batch — plus the cache consumed by :func:`backward`.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3:
        raise DataError(f"input must be (W, N) or (B, W, N), got shape {x.shape}")

    caches: list = [{"single": single}]
    act: np.ndarray = x
    for idx, layer in enumerate(params.layers):
        if isinstance(layer, LstmLayer):
            if act.ndim != 3:
                raise DataError(f"layer {idx}: LSTM needs sequence input")
            if act.shape[2] != layer.in_dim:
                raise DataError(
                    f"layer {idx}: expected {layer.in_dim} features, got {act.shape[2]}"
                )
            act, cache = _lstm_forward(layer, act)
        else:
            if act.ndim == 3:
                if act.shape[1] != 1:
                    raise DataError(
                        f"layer {idx}: dense layer cannot consume W={act.shape[1]} sequences"
                    )
                act = act[:, 0]
            if act.shape[1] != layer.in_dim:
                raise DataError(
                    f"layer {idx}: expected {layer.in_dim} features, got {act.shape[1]}"
                )
            act, cache = _dense_forward(layer, act)
        caches.append(cache)
    if act.ndim != 2:
        raise DataError("network output must be a vector per sample; "
                        "the final layer may not return a sequence")
    return (act[0] if single else act), caches


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every element of the batch."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise DataError(f"output/target shape mismatch: {output.shape} vs {target.shape}")
    diff = output - target
    with np.errstate(over="ignore"):
        # overflow to inf is legitimate here; the training loop surfaces it
        return float(np.mean(diff * diff))


def backward(
    params: NetworkParams, caches: list, target: np.ndarray
) -> list[dict[str, np.ndarray]]:
    """Exact MSE-loss gradients for every parameter, via BPTT where needed.

    ``caches`` must come from a matching :func:`forward` call; ``target``
    is (N,) for a single sequence or (B, N) for a batch.
    """
    single = caches[0]["single"]
    target = np.asarray(target, dtype=np.float64)
    if single:
        target = target[None]

    last_cache = caches[-1]
    output = last_cache["out"] if "out" in last_cache else last_cache["hidden"][:, -1]
    if output.ndim != 2 or output.shape != target.shape:
        raise DataError(f"target shape {target.shape} does not match output {output.shape}")
    d_act: np.ndarray = 2.0 * (output - target) / output.size

    grads: list[dict[str, np.ndarray]] = [{} for _ in params.layers]
    for idx in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[idx]
        cache = caches[idx + 1]
        if isinstance(layer, LstmLayer):
            grads[idx], d_act = _lstm_backward(layer, cache, d_act)
        else:
            grads[idx], d_act = _dense_backward(layer, cache, d_act)
            if d_act.ndim == 2 and idx > 0:
                prev = params.layers[idx - 1]
                if isinstance(prev, LstmLayer) and prev.return_sequence:
                    # dense consumed a squeezed W=1 sequence
                    d_act = d_act[:, None, :]
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators keyed like NetworkParams.param_items."""

    learning_rate: float = 1e-3
    step: int = 0
    moment1: dict[str, np.ndarray] = field(default_factory=dict)
    moment2: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: NetworkParams, learning_rate: float = 1e-3) -> AdamState:
    state = AdamState(learning_rate)
    for key, arr in params.param_items():
        state.moment1[key] = np.zeros_like(arr)
        state.moment2[key] = np.zeros_like(arr)
    return state


def adam_step(
    params: NetworkParams, grads: list[dict[str, np.ndarray]], state: AdamState
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected adaptive-moment update, applied in place."""
    state.step += 1
    t = state.step
    for i, layer in enumerate(params.layers):
        layer_grads = grads[i]
        for name, arr in layer.param_items():
            key = f"{i}.{name}"
            g = layer_grads[name]
            if g.shape != arr.shape:
                raise DataError(f"gradient shape mismatch for {key}")
            m = state.moment1[key]
            v = state.moment2[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            arr -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainingConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise DataError("learning_rate must be >= 0")
        counts = (self.batch_size, self.max_epochs, self.early_stop_patience)
        if not all(type(c) is int and c >= 1 for c in counts):
            raise DataError("batch_size, max_epochs and patience must be integers >= 1")


IMPROVEMENT_THRESHOLD = 1e-6


def train_autoencoder(
    params: NetworkParams, windows, cfg: TrainingConfig
) -> tuple[NetworkParams, list[float]]:
    """Mini-batch training against each window's final row.

    Shuffles windows every epoch with the seeded generator, stops early when
    the epoch loss has not improved by more than 1e-6 for
    ``early_stop_patience`` consecutive epochs, and returns the parameters
    of the best (lowest-loss) epoch together with the loss history.
    """
    sequences = np.asarray(windows.sequences, dtype=np.float64)
    targets = np.asarray(windows.targets, dtype=np.float64)
    count = len(sequences)
    if count == 0:
        raise DataError("cannot train on an empty window set")

    rng = np.random.default_rng(cfg.seed)
    best_loss = np.inf
    best_params = copy.deepcopy(params)
    state = init_adam(params, learning_rate=cfg.learning_rate)
    history: list[float] = []
    stale_epochs = 0

    for _ in range(cfg.max_epochs):
        order = rng.permutation(count)
        total = 0.0
        for lo in range(0, count, cfg.batch_size):
            # shuffling decides batch membership only; a canonical in-batch
            # order keeps float accumulation (and thus runs) bit-stable
            idx = np.sort(order[lo : lo + cfg.batch_size])
            out, caches = forward(params, sequences[idx])
            loss = mse_loss(out, targets[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged: loss became {loss}")
            grads = backward(params, caches, targets[idx])
            adam_step(params, grads, state)
            total += loss * len(idx)
        epoch_loss = total / count
        history.append(epoch_loss)

        if epoch_loss < best_loss:
            if best_loss - epoch_loss > IMPROVEMENT_THRESHOLD:
                stale_epochs = 0
            else:
                stale_epochs += 1
            best_loss = epoch_loss
            best_params = copy.deepcopy(params)
        else:
            stale_epochs += 1
        if stale_epochs >= cfg.early_stop_patience:
            break
    return best_params, history
