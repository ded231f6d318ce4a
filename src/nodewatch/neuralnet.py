"""Minimal deterministic neural-network engine on numpy.

Serves the two stacks ``models.layer_specs`` builds: dense layers (relu or
sigmoid) and LSTM layers with optional sequence output, mean-squared-error
loss with analytically derived gradients (backpropagation through time for
the recurrent layers), and an adaptive-moment optimizer. Everything is
seeded and pure numpy, so a training run is bit-reproducible on a given
machine.

Inputs are batches (B, W, N). Gate order throughout is (input, forget,
output, candidate). Nothing here re-checks shapes or settings: the model
store's loader and ``ModelSpec`` admit only the two stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingError
from .methods import TrainingConfig

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


Layer = DenseLayer | LstmLayer
LayerSpec = DenseSpec | LstmSpec


def _param_shapes(spec: LayerSpec) -> dict[str, tuple[int, ...]]:
    """Each array of a layer of ``spec``, by name, in their order in ``values``."""
    if isinstance(spec, DenseSpec):
        return {"weights": (spec.out_dim, spec.in_dim), "bias": (spec.out_dim,)}
    gates = 4 * spec.hidden_dim
    return {"w": (gates, spec.in_dim), "u": (gates, spec.hidden_dim), "b": (gates,)}


def parameter_count(specs: list[LayerSpec]) -> int:
    return sum(math.prod(shape) for spec in specs for shape in _param_shapes(spec).values())


@dataclass
class NetworkParams:
    """The network ``specs`` builds, every parameter in one float64 vector,
    ``values``, of ``parameter_count(specs)`` entries; each layer's arrays
    are views into it, cut in layer order. The optimizer, the best-epoch
    snapshot and the model store act on the vector, and :func:`backward`
    fills a gradient network of the same layout through its layers.
    """

    specs: list[LayerSpec]
    values: np.ndarray
    layers: list[Layer] = field(init=False)

    def __post_init__(self) -> None:
        self.layers = []
        offset = 0
        for spec in self.specs:
            arrays = {}
            for name, shape in _param_shapes(spec).items():
                size = math.prod(shape)
                arrays[name] = self.values[offset : offset + size].reshape(shape)
                offset += size
            if isinstance(spec, DenseSpec):
                self.layers.append(DenseLayer(**arrays, activation=spec.activation))
            else:
                self.layers.append(LstmLayer(**arrays, return_sequence=spec.return_sequence))


def init_params(specs: list[LayerSpec], seed: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1.0."""
    rng = np.random.default_rng(seed)

    def glorot(rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(rows, cols))

    params = NetworkParams(specs, np.zeros(parameter_count(specs)))
    for spec, layer in zip(specs, params.layers):
        if isinstance(layer, DenseLayer):
            layer.weights[...] = glorot(spec.out_dim, spec.in_dim, spec.in_dim, spec.out_dim)
        else:
            h, d = spec.hidden_dim, spec.in_dim
            # the seeded stream draws w then u for each gate in turn
            for k in range(len(GATES)):
                layer.w[k * h : (k + 1) * h] = glorot(h, d, d, h)
                layer.u[k * h : (k + 1) * h] = glorot(h, h, h, h)
            layer.b[h : 2 * h] = 1.0
    return params


# ---------------------------------------------------------------------------
# forward / backward


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 * (1 + tanh(x / 2)).

    tanh saturates at +-1 instead of overflowing, so no input raises a
    floating-point warning and the result stays within [0, 1].
    """
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def _dense_forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, dict]:
    pre = x @ layer.weights.T + layer.bias
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else _sigmoid(pre)
    return out, {"x": x, "out": out}


def _dense_backward(
    layer: DenseLayer, grad: DenseLayer, cache: dict, d_out: np.ndarray, input_grad: bool
) -> np.ndarray | None:
    """Fill ``grad``; return the input gradient when ``input_grad``."""
    out = cache["out"]
    if layer.activation == "relu":
        d_pre = d_out * (out > 0.0)
    else:
        d_pre = d_out * out * (1.0 - out)
    np.matmul(d_pre.T, cache["x"], out=grad.weights)
    d_pre.sum(axis=0, out=grad.bias)
    return d_pre @ layer.weights if input_grad else None


def _lstm_forward(layer: LstmLayer, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the recurrence over a (B, W, N) batch.

    The buffers are step-major, (W, features, B), so every step and every
    gate within it is a contiguous block, and the cache holds them as they
    are built. All four gates are activated by one tanh per step:
    the sigmoid gates' pre-activations are halved (an exact scaling, folded
    into the weights) and sigmoid(a) = 0.5 * (1 + tanh(a / 2)).
    """
    batch, steps, _ = x.shape
    h_dim = layer.hidden_dim
    scale = np.full((4 * h_dim, 1), 0.5)  # the sigmoid gates' rows
    scale[3 * h_dim :] = 1.0
    x = np.ascontiguousarray(x.transpose(1, 2, 0))  # (W, N, B)

    gates = np.matmul(layer.w * scale, x)  # (W, 4H, B), bias added below
    gates += layer.b[:, None] * scale
    u_scaled = layer.u * scale
    cells = np.empty((steps + 1, h_dim, batch))
    hidden = np.empty((steps + 1, h_dim, batch))
    tanh_c = np.empty((steps, h_dim, batch))
    cells[0] = 0.0
    hidden[0] = 0.0
    recurrent = np.empty((4 * h_dim, batch))
    candidate = np.empty((h_dim, batch))

    for t in range(steps):
        a = gates[t]
        if t:  # the state before the first step is zero
            a += np.matmul(u_scaled, hidden[t], out=recurrent)
        np.tanh(a, out=a)
        sig = a[: 3 * h_dim]
        sig += 1.0
        sig *= 0.5
        i, f, o, g = a.reshape(4, h_dim, batch)
        c = cells[t + 1]
        np.multiply(f, cells[t], out=c)
        c += np.multiply(i, g, out=candidate)
        np.tanh(c, out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=hidden[t + 1])

    out = hidden[1:].transpose(2, 0, 1) if layer.return_sequence else hidden[-1].T
    cache = {"x": x, "gates": gates, "cells": cells, "hidden": hidden, "tanh_c": tanh_c}
    return out, cache


def _lstm_backward(
    layer: LstmLayer, grad: LstmLayer, cache: dict, d_out: np.ndarray, input_grad: bool
) -> np.ndarray | None:
    """Backpropagation through time over the whole window, into ``grad``.

    Each gate's pre-activation gradient is dc (dh for the output gate) times
    a factor built for all steps at once: the gate's derivative times its
    partner in the cell update (g, c_prev, tanh c, i for i, f, o, g). The
    gradient with respect to the input sequence is built only when
    ``input_grad``.
    """
    x, gates, cells, hidden, tanh_c = (
        cache[k] for k in ("x", "gates", "cells", "hidden", "tanh_c")
    )
    steps, _, batch = x.shape
    h_dim = layer.hidden_dim

    gate4 = gates.reshape(steps, 4, h_dim, batch)
    i, f, o, g = gate4.swapaxes(0, 1)
    # built in place: temporaries of this size cost page faults
    factor = 1.0 - gate4
    factor *= gate4
    d_g = factor[:, 3]
    np.multiply(g, g, out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    for k, partner in enumerate((g, cells[:-1], tanh_c, i)):
        factor[:, k] *= partner
    dc_dh = tanh_c * tanh_c  # dc/dh through h = o * tanh(c)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    u_transposed = np.ascontiguousarray(layer.u.T)

    d_all = np.empty((steps, 4, h_dim, batch))
    d_seq = d_out.transpose(1, 2, 0) if layer.return_sequence else None
    dh = np.zeros((h_dim, batch)) if layer.return_sequence else np.array(d_out.T)
    dc = np.zeros((h_dim, batch))
    dc_step = np.empty((h_dim, batch))
    for t in range(steps - 1, -1, -1):
        if d_seq is not None:
            dh += d_seq[t]
        dc += np.multiply(dh, dc_dh[t], out=dc_step)
        da = d_all[t]
        np.multiply(factor[t], dc, out=da)
        np.multiply(factor[t, 2], dh, out=da[2])
        if t:
            dc *= f[t]
            np.matmul(u_transposed, da.reshape(4 * h_dim, batch), out=dh)

    d_all = d_all.reshape(steps, 4 * h_dim, batch)
    np.matmul(d_all, x.transpose(0, 2, 1)).sum(axis=0, out=grad.w)
    np.matmul(d_all, hidden[:-1].transpose(0, 2, 1)).sum(axis=0, out=grad.u)
    d_all.sum(axis=0).sum(axis=1, out=grad.b)
    if not input_grad:
        return None
    return np.matmul(np.ascontiguousarray(layer.w.T), d_all).transpose(2, 0, 1)


def forward(params: NetworkParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the network on a batch (B, W, N).

    Returns the (B, N) reconstruction plus the cache consumed by
    :func:`backward`. A dense layer that meets a sequence reads its only
    step: the dense stack's windows are one row long.
    """
    caches: list = []
    act = np.asarray(x, dtype=np.float64)
    for layer in params.layers:
        if isinstance(layer, LstmLayer):
            act, cache = _lstm_forward(layer, act)
        else:
            act, cache = _dense_forward(layer, act[:, 0] if act.ndim == 3 else act)
        caches.append(cache)
    return act, caches


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every element of the batch."""
    diff = output - target
    with np.errstate(over="ignore"):
        # overflow to inf is legitimate here; the training loop surfaces it
        return float(np.mean(diff * diff))


def backward(params: NetworkParams, caches: list, target: np.ndarray) -> NetworkParams:
    """Exact MSE-loss gradients for every parameter, via BPTT where needed,
    as a new network of ``params.specs``. ``caches`` must come from a
    matching :func:`forward` call and ``target`` is the (B, N) batch of
    targets.
    """
    output = caches[-1]["out"]
    d_act: np.ndarray = 2.0 * (output - target) / output.size

    grads = NetworkParams(params.specs, np.empty_like(params.values))
    for idx in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[idx]
        step = _lstm_backward if isinstance(layer, LstmLayer) else _dense_backward
        # nothing reads the gradient with respect to the network input
        d_act = step(layer, grads.layers[idx], caches[idx], d_act, input_grad=idx > 0)
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, each one flat buffer laid out like
    NetworkParams.values."""

    moment1: np.ndarray
    moment2: np.ndarray
    learning_rate: float
    step: int = 0


def init_adam(params: NetworkParams, learning_rate: float) -> AdamState:
    size = params.values.size
    return AdamState(np.zeros(size), np.zeros(size), learning_rate)


def adam_step(params: NetworkParams, grads: NetworkParams, state: AdamState) -> None:
    """One bias-corrected adaptive-moment update, applied in place.

    ``grads.values`` is laid out like ``params.values``, so the moments and
    the update take one vectorised pass over every parameter at once.
    """
    state.step += 1
    t = state.step
    m, v, g = state.moment1, state.moment2, grads.values
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    params.values -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


# ---------------------------------------------------------------------------
# training loop


IMPROVEMENT_THRESHOLD = 1e-6


def train_autoencoder(
    params: NetworkParams, windows, cfg: TrainingConfig
) -> tuple[NetworkParams, list[float]]:
    """Mini-batch training against each window's final row, gathering each batch's windows.

    Shuffles windows every epoch with the seeded generator, stops early when
    the epoch loss has not improved by more than 1e-6 for
    ``early_stop_patience`` consecutive epochs, and returns ``params``, set
    in place to the parameters of the best (lowest-loss) epoch, together
    with the loss history.
    """
    targets = windows.targets
    count = len(windows)
    if count == 0:
        raise DataError("cannot train on an empty window set")

    rng = np.random.default_rng(cfg.seed)
    best_loss = np.inf
    best = params.values.copy()
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
            out, caches = forward(params, windows.gather(idx))
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
            best = params.values.copy()
        else:
            stale_epochs += 1
        if stale_epochs >= cfg.early_stop_patience:
            break
    params.values[...] = best
    return params, history
