"""Minimal deterministic neural-network engine on numpy.

Serves the two stacks ``models.layer_specs`` builds: dense layers (relu or
sigmoid) and LSTM layers with optional sequence output, mean-squared-error
loss with analytically derived gradients (backpropagation through time for
the recurrent layers), and an adaptive-moment optimizer. Everything is
seeded and pure numpy, so a training run is bit-reproducible on a given
machine.

Inputs are batches (B, W, N). Gate order throughout is (input, forget,
output, candidate). Nothing here re-checks shapes or settings: the model
store's loader and ``ModelSpec`` admit only the two stacks. A pass computes
in the dtype of its parameters; training and scoring run float32 copies
(COMPUTE_DTYPE), while the parameter vector, Adam's moments and the model
store keep float64.

Every pass runs in a :class:`Workspace`, one per training run or scoring
call. A layer takes its buffers when its views for a batch shape are built,
and its backward buffers in that shape's first backward pass, so a pass
takes none but the loss gradient and a scoring workspace holds no backward
buffer. A buffer grows only when taken larger: a ragged last batch reuses
the front of the full batch's memory. The LSTM layers share only the scratch
whose size a hidden width and the batch set (worth 4 % of RUAD training and
5-8 % of its scoring); sharing what an input width or the weights size saved
nothing. Buffers keep the layouts of the arrays they replaced, down to one
column-major gradient (``dh``): numpy's matmul picks its BLAS call, and so
the result's last bits, by the layouts of its operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
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
# workspace: the buffers every pass runs in


class _DenseSpace:
    """A dense layer's buffers for one batch size, each named with the
    layer's index: its (B, features) output, taken when the space is built,
    and the gradient buffers that the first backward pass takes."""

    def __init__(self, idx: int, spec: DenseSpec, batch: int, take) -> None:
        self.idx, self.spec = idx, spec
        self.out = take(f"{idx}.out", (batch, spec.out_dim))
        self.x = self.d_pre = self.d_in = None

    def forward(self, layer: DenseLayer, x: np.ndarray) -> np.ndarray:
        # a dense layer that meets a sequence reads its only step: the dense
        # stack's windows are one row long
        self.x = x = x[:, 0] if x.ndim == 3 else x
        out = self.out
        np.matmul(x, layer.weights.T, out=out)
        out += layer.bias
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
        else:
            _sigmoid(out, out=out)
        return out

    def take_backward(self, take, input_grad: bool) -> None:
        self.d_pre = take(f"{self.idx}.d_pre", self.out.shape)
        if self.spec.activation != "relu":
            self.factor = take(f"{self.idx}.factor", self.out.shape)
        if input_grad:
            self.d_in = take(f"{self.idx}.d_in", self.x.shape)

    def backward(self, layer: DenseLayer, grad: DenseLayer, d_out: np.ndarray) -> np.ndarray | None:
        """Fill ``grad``; return the input gradient, if the layer has one."""
        out, d_pre = self.out, self.d_pre
        if layer.activation == "relu":
            np.greater(out, 0.0, out=d_pre)  # 1.0 where the unit is active
            d_pre *= d_out
        else:
            np.multiply(d_out, out, out=d_pre)
            d_pre *= np.subtract(1.0, out, out=self.factor)
        np.matmul(d_pre.T, self.x, out=grad.weights)
        d_pre.sum(axis=0, out=grad.bias)
        if self.d_in is None:
            return None
        return np.matmul(d_pre, layer.weights, out=self.d_in)


class _LstmSpace:
    """An LSTM layer's buffers and step views for one batch shape.

    Its buffers are step-major, (W, features, B), so every step and every
    gate within it is a contiguous block at any batch size. The LSTM layers
    run one after another and share, under ``lstm.`` names, the scratch whose
    size a hidden width and the batch set; the first layer, the wider, sizes it.
    Every other buffer is the layer's own, named with its index.
    """

    def __init__(self, idx: int, spec: LstmSpec, batch: int, steps: int, take) -> None:
        h, n = spec.hidden_dim, spec.in_dim
        self.idx, self.spec = idx, spec
        # the network's input is batch-major; an LSTM layer below gives step-major input
        self.step_major = take(f"{idx}.x", (steps, n, batch)) if idx == 0 else None
        self.w_scaled = take(f"{idx}.w_scaled", (4 * h, n))
        scale = np.array([[0.5], [1.0]], self.w_scaled.dtype)
        self.scale = np.repeat(scale, (3 * h, h), axis=0)  # halves the sigmoid gates
        self.u_scaled = take(f"{idx}.u_scaled", (4 * h, h))
        self.b_scaled = take(f"{idx}.b_scaled", (4 * h, 1))
        self.recurrent = take("lstm.recurrent", (4 * h, batch))
        self.candidate = take("lstm.candidate", (h, batch))
        self.gates = gates = take(f"{idx}.gates", (steps, 4 * h, batch))
        # each gate's partner in the cell update (g, c before, tanh c, i), laid out
        # like the gates for one contiguous backward product; the forward pass
        # writes each cell (the last in a step of its own) and tanh c in place
        self.partners = partners = take(f"{idx}.partners", (steps + 1, 4, h, batch))
        self.cells = cells = partners[:, 1]
        self.tanh_c = tanh_c = partners[:-1, 2]
        self.hidden = hidden = take(f"{idx}.hidden", (steps + 1, h, batch))
        self.out = hidden[1:].transpose(2, 0, 1) if spec.return_sequence else hidden[-1].T
        # (a, its sigmoid rows, i, f, o, g, c before, c, tanh c, h before, h)
        self.forward_steps = [
            (gates[t], gates[t, : 3 * h], *gates[t].reshape(4, h, batch),
             cells[t], cells[t + 1], tanh_c[t], hidden[t], hidden[t + 1])
            for t in range(steps)
        ]
        self.x = self.d_pre = self.d_in = None

    def forward(self, layer: LstmLayer, x: np.ndarray) -> np.ndarray:
        """Run the recurrence over a (B, W, N) batch.

        All four gates are activated by one tanh per step: the sigmoid
        gates' pre-activations are halved (an exact scaling, folded into the
        weights) and sigmoid(a) = 0.5 * (1 + tanh(a / 2)).
        """
        x = x.transpose(1, 2, 0)  # (W, N, B)
        if self.step_major is not None:
            np.copyto(self.step_major, x)
            x = self.step_major
        np.multiply(layer.w, self.scale, out=self.w_scaled)
        np.matmul(self.w_scaled, x, out=self.gates)  # (W, 4H, B), bias added below
        self.gates += np.multiply(layer.b[:, None], self.scale, out=self.b_scaled)
        np.multiply(layer.u, self.scale, out=self.u_scaled)
        # the zero initial state, set on every pass: a smaller batch overlaps a larger one
        self.cells[0] = self.hidden[0] = 0.0
        for t, (a, sig, i, f, o, g, c_prev, c, tanh_c, h_prev, h) in enumerate(self.forward_steps):
            if t:
                a += np.matmul(self.u_scaled, h_prev, out=self.recurrent)
            np.tanh(a, out=a)
            sig += 1.0
            sig *= 0.5
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=self.candidate)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        self.x = x
        return self.out

    def take_backward(self, take, input_grad: bool) -> None:
        (steps, h, batch), n = self.tanh_c.shape, self.spec.in_dim
        self.gate4 = self.gates.reshape(steps, 4, h, batch)
        _, f, self.o, self.g = self.gate4.swapaxes(0, 1)
        self.factor = factor = take("lstm.factor", (steps, 4, h, batch))
        d_pre = take("lstm.d_pre", (steps, 4, h, batch))
        self.d_pre = d_pre.reshape(steps, 4 * h, batch)
        self.dc_dh = dc_dh = take("lstm.dc_dh", (steps, h, batch))
        # The last LSTM layer's dh starts as a copy of the dense layer's
        # gradient transposed, so it is column-major. Keep it so: matmul
        # writes a column-major result as the transposed product, and a
        # row-major buffer changes the recurrent product's bits at many
        # batch sizes (3, 4, 51 and 100 among them, though not 64 or 128).
        self.dh = take("lstm.dh", (h, batch))
        if not self.spec.return_sequence:
            self.dh = take("lstm.dh", (batch, h)).T
        self.dc = take("lstm.dc", (h, batch))
        self.dc_step = take("lstm.dc_step", (h, batch))
        self.bias_rows = take("lstm.bias_rows", (4 * h, batch))
        self.u_t = take(f"{self.idx}.u_t", (h, 4 * h))
        self.x_product = take(f"{self.idx}.x_product", (steps, 4 * h, n))
        self.h_product = take(f"{self.idx}.h_product", (steps, 4 * h, h))
        # (t, dc/dh, da, its factor, the output gate's da and factor, f,
        # da as rows), last step first
        self.backward_steps = [
            (t, dc_dh[t], d_pre[t], factor[t], d_pre[t, 2], factor[t, 2], f[t],
             d_pre[t].reshape(4 * h, batch))
            for t in range(steps - 1, -1, -1)
        ]
        if input_grad:
            self.w_t = take(f"{self.idx}.w_t", (n, 4 * h))
            self.d_in = take(f"{self.idx}.d_in", (steps, n, batch))

    def backward(self, layer: LstmLayer, grad: LstmLayer, d_out: np.ndarray) -> np.ndarray | None:
        """Backpropagation through time over the whole window, into ``grad``.

        Each gate's pre-activation gradient is dc (dh for the output gate)
        times a factor built for all steps at once: the gate's derivative
        times its partner in the cell update (g, c_prev, tanh c, i for i, f,
        o, g). The gradient with respect to the input sequence is built only
        when the layer has one.
        """
        factor = self.factor
        np.subtract(1.0, self.gate4, out=factor)
        factor *= self.gate4
        d_g = factor[:, 3]
        np.multiply(self.g, self.g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        partners = self.partners[:-1]
        np.copyto(partners[:, ::3], self.gate4[:, ::-3])  # g and i, beside c before and tanh c
        factor *= partners
        dc_dh = self.dc_dh  # dc/dh through h = o * tanh(c)
        np.multiply(self.tanh_c, self.tanh_c, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= self.o
        np.copyto(self.u_t, layer.u.T)

        dh, dc, dc_step = self.dh, self.dc, self.dc_step
        d_seq = d_out.transpose(1, 2, 0) if self.spec.return_sequence else None
        if d_seq is None:
            np.copyto(dh, d_out.T)
        else:
            dh[...] = 0.0
        dc[...] = 0.0
        for t, dc_dh_t, da, factor_t, da_o, factor_o, f, da_rows in self.backward_steps:
            if d_seq is not None:
                dh += d_seq[t]
            dc += np.multiply(dh, dc_dh_t, out=dc_step)
            np.multiply(factor_t, dc, out=da)
            np.multiply(factor_o, dh, out=da_o)
            if t:
                dc *= f
                np.matmul(self.u_t, da_rows, out=dh)

        d_pre, hidden_t = self.d_pre, self.hidden[:-1].transpose(0, 2, 1)
        np.matmul(d_pre, self.x.transpose(0, 2, 1), out=self.x_product).sum(axis=0, out=grad.w)
        np.matmul(d_pre, hidden_t, out=self.h_product).sum(axis=0, out=grad.u)
        np.sum(d_pre, axis=0, out=self.bias_rows).sum(axis=1, out=grad.b)
        if self.d_in is None:
            return None
        np.copyto(self.w_t, layer.w.T)
        return np.matmul(self.w_t, d_pre, out=self.d_in).transpose(2, 0, 1)


class Workspace:
    """The buffers every pass of one network runs in: each layer's buffers
    and step views, built once per input shape; the loss gradient and the
    gradient network of :func:`backward`, whose buffers the first backward
    pass takes, so a workspace that only scores holds none.

    Each buffer is a flat array of ``pool``, of the parameters' ``dtype``,
    made by :meth:`take` the first time it is taken and enlarged only when
    it is taken larger. Its views cover its first entries, so a ragged
    last batch reuses the front of the full batch's memory. What a pass
    returns is valid until the next pass in the same workspace.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype
        self.pool: dict[str, np.ndarray] = {}
        self.spaces: dict[tuple[int, ...], list[_LstmSpace | _DenseSpace]] = {}  # by input shape
        self.layers: list[_LstmSpace | _DenseSpace] = []  # the last forward pass's spaces
        self.grads: NetworkParams | None = None  # made by the first backward pass

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-ordered view of ``shape`` over the first entries of ``name``'s array."""
        size = math.prod(shape)
        flat = self.pool.get(name)
        if flat is None or flat.size < size:
            flat = self.pool[name] = np.empty(size, self.dtype)
        return flat[:size].reshape(shape)


# ---------------------------------------------------------------------------
# forward / backward


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in its tanh form, 0.5 * (1 + tanh(x / 2)), into
    ``out`` when given (``x`` itself may be ``out``).

    tanh saturates at +-1 instead of overflowing, so no input raises a
    floating-point warning and the result stays within [0, 1].
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def forward(
    params: NetworkParams, x: np.ndarray, workspace: Workspace | None = None
) -> tuple[np.ndarray, Workspace]:
    """Run the network on a batch (B, W, N) in ``workspace``, or in a fresh one.

    The pass computes in the dtype of ``params.values``, to which ``x`` is
    cast. Returns the (B, N) reconstruction and the workspace, which holds
    the caches that :func:`backward` consumes. Both live in the workspace's
    buffers: they are valid until the next pass in the same workspace.
    """
    act = np.asarray(x, dtype=params.values.dtype)
    if workspace is None:
        workspace = Workspace(params.values.dtype)
    spaces = workspace.spaces.get(act.shape)
    if spaces is None:
        # no space keeps a reference to the workspace: that cycle would keep
        # a dropped workspace alive until the garbage collector runs
        batch, steps = len(act), act.shape[1] if act.ndim == 3 else 1
        spaces = workspace.spaces[act.shape] = [
            _LstmSpace(idx, spec, batch, steps, workspace.take) if isinstance(spec, LstmSpec)
            else _DenseSpace(idx, spec, batch, workspace.take)
            for idx, spec in enumerate(params.specs)
        ]
    for layer, space in zip(params.layers, spaces):
        act = space.forward(layer, act)
    workspace.layers = spaces
    return act, workspace


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every element of the batch."""
    diff = output - target
    with np.errstate(over="ignore"):
        # overflow to inf is legitimate here; the training loop surfaces it
        return float(np.mean(diff * diff))


def backward(params: NetworkParams, caches: Workspace, target: np.ndarray) -> NetworkParams:
    """Exact MSE-loss gradients for every parameter, via BPTT where needed,
    as the gradient network of the workspace ``caches``, laid out like
    ``params``. ``caches`` must hold a :func:`forward` pass of ``params``,
    and ``target`` is the (B, N) batch of targets. The gradients are valid
    until the next backward pass in the same workspace. Each pass takes the
    loss gradient's buffer; a batch shape's first takes every layer's too.
    """
    spaces = caches.layers
    output = spaces[-1].out
    if caches.grads is None:
        caches.grads = NetworkParams(params.specs, caches.take("grads", params.values.shape))
    if spaces[0].d_pre is None:
        # nothing reads the gradient with respect to the network input
        for idx, space in enumerate(spaces):
            space.take_backward(caches.take, input_grad=idx > 0)
    d_act = caches.take("d_loss", output.shape)
    np.subtract(output, target, out=d_act)
    d_act *= 2.0
    d_act /= output.size

    for idx in range(len(spaces) - 1, -1, -1):
        d_act = spaces[idx].backward(params.layers[idx], caches.grads.layers[idx], d_act)
    return caches.grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, each one flat buffer laid out like
    NetworkParams.values, and two scratch vectors of that size for the
    update, all float64."""

    moment1: np.ndarray
    moment2: np.ndarray
    learning_rate: float
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.moment1), np.empty_like(self.moment1))


def init_adam(params: NetworkParams, learning_rate: float) -> AdamState:
    size = params.values.size
    return AdamState(np.zeros(size), np.zeros(size), learning_rate)


def adam_step(params: NetworkParams, grads: NetworkParams, state: AdamState) -> None:
    """One bias-corrected adaptive-moment update, applied in place.

    ``grads.values`` is laid out like ``params.values``, so the moments and
    the update take one vectorised pass over every parameter at once, in
    the state's two scratch vectors, the first a float64 copy of the
    gradient. Each operation takes the operands of m_hat = m / (1 - beta1^t),
    v_hat = v / (1 - beta2^t) and lr * m_hat / (sqrt(v_hat) + eps) in that
    order, so every bit is as that formula's.
    """
    state.step += 1
    t = state.step
    m, v = state.moment1, state.moment2
    update, root = state.scratch
    g = root  # until v_hat overwrites it
    np.copyto(g, grads.values)
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=update)
    v *= ADAM_BETA2
    np.multiply(g, g, out=update)
    update *= 1.0 - ADAM_BETA2
    v += update
    np.divide(m, 1.0 - ADAM_BETA1**t, out=update)  # m_hat
    np.divide(v, 1.0 - ADAM_BETA2**t, out=root)  # v_hat
    update *= state.learning_rate
    np.sqrt(root, out=root)
    root += ADAM_EPSILON
    update /= root
    params.values -= update


# ---------------------------------------------------------------------------
# training loop


IMPROVEMENT_THRESHOLD = 1e-6

# the dtype that training and scoring compute in; the parameter vector, Adam's
# moments, the best-epoch snapshot and the store stay float64
COMPUTE_DTYPE = np.float32


@np.errstate(over="ignore", invalid="ignore")
def train_autoencoder(
    params: NetworkParams, windows, cfg: TrainingConfig
) -> tuple[NetworkParams, list[float]]:
    """Mini-batch training against each window's final row, gathering each batch's windows.

    Shuffles windows every epoch with the seeded generator, stops early when
    the epoch loss has not improved by more than 1e-6 for
    ``early_stop_patience`` consecutive epochs, and returns ``params``, set
    in place to the parameters of the best (lowest-loss) epoch, together
    with the loss history. ``windows`` is not empty. Values that overflow
    raise no warning: a loss that is not finite is a TrainingError. Each
    batch casts the float64 ``params`` into one COMPUTE_DTYPE copy, gathers
    its windows from a copy of the rows in that dtype and runs in one
    :class:`Workspace`, which is dropped on return.
    """
    windows = windows.astype(COMPUTE_DTYPE)
    targets = windows.targets
    count = len(windows)
    rng = np.random.default_rng(cfg.seed)
    best_loss = np.inf
    best = params.values.copy()
    state = init_adam(params, learning_rate=cfg.learning_rate)
    compute = NetworkParams(params.specs, params.values.astype(COMPUTE_DTYPE))
    space = Workspace(COMPUTE_DTYPE)
    history: list[float] = []
    stale_epochs = 0

    for _ in range(cfg.max_epochs):
        order = rng.permutation(count)
        total = 0.0
        for lo in range(0, count, cfg.batch_size):
            # shuffling decides batch membership only; a canonical in-batch
            # order keeps float accumulation (and thus runs) bit-stable
            idx = np.sort(order[lo : lo + cfg.batch_size])
            target = targets[idx]
            np.copyto(compute.values, params.values)
            out, caches = forward(compute, windows.gather(idx), space)
            loss = mse_loss(out, target)
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged: loss became {loss}")
            grads = backward(compute, caches, target)
            adam_step(params, grads, state)
            total += loss * len(idx)
        epoch_loss = total / count
        history.append(epoch_loss)

        stale_epochs = 0 if best_loss - epoch_loss > IMPROVEMENT_THRESHOLD else stale_epochs + 1
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best[...] = params.values
        if stale_epochs >= cfg.early_stop_patience:
            break
    params.values[...] = best
    return params, history
