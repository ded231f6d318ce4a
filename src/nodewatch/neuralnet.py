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

Every pass runs in a :class:`Workspace`: a training run, or a scoring call,
builds one sized for its largest batch, and each batch reuses its buffers
and step views, so a pass allocates no arrays of its own. What a pass
returns (outputs, caches, gradients) lives in the workspace and is valid
until the next pass there. The buffers copy the layouts of the arrays they
replace, down to one column-major gradient, because numpy's matmul picks its
BLAS call, and so the result's last bits, by the layouts of its operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

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


class _Buffers:
    """Flat float64 arrays by name, each of a size fixed up front and made
    the first time a view of it is carved, so a buffer that no pass uses
    costs nothing. Every view covers the first entries of its array: a
    batch smaller than the largest reuses the largest one's memory."""

    def __init__(self, **sizes: int) -> None:
        self.sizes = sizes
        self.flat: dict[str, np.ndarray] = {}

    def carve(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-ordered view of ``shape`` over the first entries of ``name``."""
        flat = self.flat.get(name)
        if flat is None:
            flat = self.flat[name] = np.empty(self.sizes[name])
        return flat[: math.prod(shape)].reshape(shape)


class _DenseSpace:
    """A dense layer's part of a workspace: its (B, features) output and
    gradient buffers, and the input and output of the last forward pass."""

    def __init__(self, spec: DenseSpec, batch: int) -> None:
        out = batch * spec.out_dim
        self.buffers = _Buffers(out=out, d_pre=out, factor=out, d_in=batch * spec.in_dim)
        self.x = self.out = None

    def forward(self, layer: DenseLayer, x: np.ndarray) -> np.ndarray:
        # a dense layer that meets a sequence reads its only step: the dense
        # stack's windows are one row long
        x = x[:, 0] if x.ndim == 3 else x
        out = self.buffers.carve("out", (len(x), layer.out_dim))
        np.matmul(x, layer.weights.T, out=out)
        out += layer.bias
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
        else:
            _sigmoid(out, out=out)
        self.x, self.out = x, out
        return out

    def backward(
        self, layer: DenseLayer, grad: DenseLayer, d_out: np.ndarray, input_grad: bool
    ) -> np.ndarray | None:
        """Fill ``grad``; return the input gradient when ``input_grad``."""
        out = self.out
        d_pre = self.buffers.carve("d_pre", out.shape)
        if layer.activation == "relu":
            np.greater(out, 0.0, out=d_pre)  # 1.0 where the unit is active
            d_pre *= d_out
        else:
            np.multiply(d_out, out, out=d_pre)
            d_pre *= np.subtract(1.0, out, out=self.buffers.carve("factor", out.shape))
        np.matmul(d_pre.T, self.x, out=grad.weights)
        d_pre.sum(axis=0, out=grad.bias)
        if not input_grad:
            return None
        return np.matmul(d_pre, layer.weights, out=self.buffers.carve("d_in", self.x.shape))


class _LstmSpace:
    """An LSTM layer's part of a workspace.

    Its batch-sized buffers are step-major, (W, features, B), so every step
    and every gate within it is a contiguous block at any batch size. The
    views a batch size needs, down to each step's, are built the first time
    that size runs and then kept. What a pass needs only while it runs
    lives in ``scratch``, which every LSTM layer of the network shares:
    the layers run one after another, and only their caches and input
    gradients outlive their pass.
    """

    def __init__(self, spec: LstmSpec, batch: int, steps: int, scratch: _Buffers) -> None:
        h, n = spec.hidden_dim, spec.in_dim
        self.spec, self.steps, self.scratch = spec, steps, scratch
        self.scale = np.full((4 * h, 1), 0.5)  # the sigmoid gates' rows
        self.scale[3 * h :] = 1.0
        self.w_scaled, self.u_scaled = np.empty((4 * h, n)), np.empty((4 * h, h))
        self.b_scaled = np.empty((4 * h, 1))
        self.buffers = _Buffers(
            x=steps * n * batch,
            gates=steps * 4 * h * batch,
            cells=(steps + 1) * h * batch,
            hidden=(steps + 1) * h * batch,
            tanh_c=steps * h * batch,
            d_in=steps * n * batch,
            u_t=h * 4 * h,
            w_t=n * 4 * h,
        )
        self.by_batch: dict[int, SimpleNamespace] = {}
        self.x = self.cache = None

    def _views(self, batch: int) -> SimpleNamespace:
        """The forward views of a pass over ``batch`` windows."""
        views = self.by_batch.get(batch)
        if views is not None:
            return views
        steps, h, carve = self.steps, self.spec.hidden_dim, self.buffers.carve
        gates = carve("gates", (steps, 4 * h, batch))
        cells = carve("cells", (steps + 1, h, batch))
        hidden = carve("hidden", (steps + 1, h, batch))
        tanh_c = carve("tanh_c", (steps, h, batch))
        views = self.by_batch[batch] = SimpleNamespace(
            batch=batch,
            gates=gates,
            cells=cells,
            hidden=hidden,
            tanh_c=tanh_c,
            recurrent=self.scratch.carve("recurrent", (4 * h, batch)),
            candidate=self.scratch.carve("candidate", (h, batch)),
            out=hidden[1:].transpose(2, 0, 1) if self.spec.return_sequence else hidden[-1].T,
            # (a, its sigmoid rows, i, f, o, g, c before, c, tanh c, h before, h)
            steps=[
                (gates[t], gates[t, : 3 * h], *gates[t].reshape(4, h, batch),
                 cells[t], cells[t + 1], tanh_c[t], hidden[t], hidden[t + 1])
                for t in range(steps)
            ],
            back=None,
        )
        return views

    def forward(self, layer: LstmLayer, x: np.ndarray) -> np.ndarray:
        """Run the recurrence over a (B, W, N) batch.

        All four gates are activated by one tanh per step: the sigmoid
        gates' pre-activations are halved (an exact scaling, folded into the
        weights) and sigmoid(a) = 0.5 * (1 + tanh(a / 2)).
        """
        views = self._views(len(x))
        x = x.transpose(1, 2, 0)  # (W, N, B), as an LSTM layer below gives it
        if not x.flags.c_contiguous:
            step_major = self.buffers.carve("x", x.shape)
            np.copyto(step_major, x)
            x = step_major
        np.multiply(layer.w, self.scale, out=self.w_scaled)
        np.matmul(self.w_scaled, x, out=views.gates)  # (W, 4H, B), bias added below
        views.gates += np.multiply(layer.b[:, None], self.scale, out=self.b_scaled)
        np.multiply(layer.u, self.scale, out=self.u_scaled)
        views.cells[0] = 0.0
        views.hidden[0] = 0.0
        for t, (a, sig, i, f, o, g, c_prev, c, tanh_c, h_prev, h) in enumerate(views.steps):
            if t:  # the state before the first step is zero
                a += np.matmul(self.u_scaled, h_prev, out=views.recurrent)
            np.tanh(a, out=a)
            sig += 1.0
            sig *= 0.5
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=views.candidate)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        self.x, self.cache = x, views
        return views.out

    def _backward_views(self, views: SimpleNamespace) -> SimpleNamespace:
        """The backward views of the pass ``views`` holds."""
        if views.back is not None:
            return views.back
        steps, h, n, batch = self.steps, self.spec.hidden_dim, self.spec.in_dim, views.batch
        carve = self.scratch.carve
        gate4 = views.gates.reshape(steps, 4, h, batch)
        i, f, o, g = gate4.swapaxes(0, 1)
        factor = carve("factor", (steps, 4, h, batch))
        d_all = carve("d_all", (steps, 4, h, batch))
        dc_dh = carve("dc_dh", (steps, h, batch))
        # The last LSTM layer's dh starts as a copy of the dense layer's
        # gradient transposed, so it is column-major. Keep it so: matmul
        # writes a column-major result as the transposed product, and a
        # row-major buffer changes the recurrent product's bits at many
        # batch sizes (3, 4, 51 and 100 among them, though not 64 or 128).
        dh = carve("dh", (h, batch))
        if not self.spec.return_sequence:
            dh = carve("dh", (batch, h)).T
        views.back = SimpleNamespace(
            gate4=gate4,
            g=g,
            o=o,
            factor=factor,
            # each gate's factor and its partner in the cell update
            partners=list(zip(factor.swapaxes(0, 1), (g, views.cells[:-1], views.tanh_c, i))),
            dc_dh=dc_dh,
            d_all=d_all.reshape(steps, 4 * h, batch),
            dh=dh,
            dc=carve("dc", (h, batch)),
            dc_step=carve("dc_step", (h, batch)),
            # (t, dc/dh, da, its factor, the output gate's da and factor, f,
            # da as rows), last step first
            steps=[
                (t, dc_dh[t], d_all[t], factor[t], d_all[t, 2], factor[t, 2], f[t],
                 d_all[t].reshape(4 * h, batch))
                for t in range(steps - 1, -1, -1)
            ],
            hidden_t=views.hidden[:-1].transpose(0, 2, 1),
            bias_rows=carve("bias_rows", (4 * h, batch)),
            # the weight gradients' (W, 4H, N) and (W, 4H, H) products
            x_product=carve("products", (steps, 4 * h, n)),
            h_product=carve("products", (steps, 4 * h, h)),
            u_t=self.buffers.carve("u_t", (h, 4 * h)),
        )
        return views.back

    def backward(
        self, layer: LstmLayer, grad: LstmLayer, d_out: np.ndarray, input_grad: bool
    ) -> np.ndarray | None:
        """Backpropagation through time over the whole window, into ``grad``.

        Each gate's pre-activation gradient is dc (dh for the output gate)
        times a factor built for all steps at once: the gate's derivative
        times its partner in the cell update (g, c_prev, tanh c, i for i, f,
        o, g). The gradient with respect to the input sequence is built only
        when ``input_grad``.
        """
        views = self.cache
        back = self._backward_views(views)
        factor = back.factor
        np.subtract(1.0, back.gate4, out=factor)
        factor *= back.gate4
        d_g = factor[:, 3]
        np.multiply(back.g, back.g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        for gate_factor, partner in back.partners:
            gate_factor *= partner
        dc_dh = back.dc_dh  # dc/dh through h = o * tanh(c)
        np.multiply(views.tanh_c, views.tanh_c, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= back.o
        np.copyto(back.u_t, layer.u.T)

        dh, dc, dc_step = back.dh, back.dc, back.dc_step
        d_seq = d_out.transpose(1, 2, 0) if self.spec.return_sequence else None
        if d_seq is None:
            np.copyto(dh, d_out.T)
        else:
            dh[...] = 0.0
        dc[...] = 0.0
        for t, dc_dh_t, da, factor_t, da_o, factor_o, f, da_rows in back.steps:
            if d_seq is not None:
                dh += d_seq[t]
            dc += np.multiply(dh, dc_dh_t, out=dc_step)
            np.multiply(factor_t, dc, out=da)
            np.multiply(factor_o, dh, out=da_o)
            if t:
                dc *= f
                np.matmul(back.u_t, da_rows, out=dh)

        d_all = back.d_all
        np.matmul(d_all, self.x.transpose(0, 2, 1), out=back.x_product).sum(axis=0, out=grad.w)
        np.matmul(d_all, back.hidden_t, out=back.h_product).sum(axis=0, out=grad.u)
        np.sum(d_all, axis=0, out=back.bias_rows).sum(axis=1, out=grad.b)
        if not input_grad:
            return None
        w_t = self.buffers.carve("w_t", layer.w.T.shape)
        np.copyto(w_t, layer.w.T)
        d_in = self.buffers.carve("d_in", self.x.shape)
        return np.matmul(w_t, d_all, out=d_in).transpose(2, 0, 1)


class Workspace:
    """Every buffer that passes of ``specs``'s network over batches of at
    most ``batch`` windows of ``steps`` rows use, built once and reused by
    each pass: per layer, the forward caches and the views each step uses;
    the buffers a pass needs only while it runs, which the LSTM layers
    share; the loss gradient and the gradient network that
    :func:`backward` fills.

    Each buffer is carved from one flat array sized for ``batch``, so a
    smaller batch, such as an epoch's last, reuses its first entries; an
    array is made on first use, so a workspace that only scores holds no
    backward buffers. A pass's outputs and caches, and the gradients
    :func:`backward` returns, are views into the workspace: they are valid
    until the next pass in the same workspace.
    """

    def __init__(self, specs: list[LayerSpec], batch: int, steps: int) -> None:
        self.batch = batch
        lstms = [spec for spec in specs if isinstance(spec, LstmSpec)]
        h = max((spec.hidden_dim for spec in lstms), default=0)
        width = max((spec.in_dim for spec in lstms), default=0)
        scratch = _Buffers(
            recurrent=4 * h * batch,
            candidate=h * batch,
            factor=steps * 4 * h * batch,
            d_all=steps * 4 * h * batch,
            dc_dh=steps * h * batch,
            dh=h * batch,
            dc=h * batch,
            dc_step=h * batch,
            bias_rows=4 * h * batch,
            products=steps * 4 * h * max(width, h),
        )
        self.layers = [
            _LstmSpace(spec, batch, steps, scratch)
            if isinstance(spec, LstmSpec)
            else _DenseSpace(spec, batch)
            for spec in specs
        ]
        # made by the first backward pass: a workspace that only scores needs neither
        self.grads: NetworkParams | None = None
        self.d_loss: np.ndarray | None = None
        self.out = None


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
    """Run the network on a batch (B, W, N) in ``workspace``, or in a fresh
    one sized for ``x``.

    Returns the (B, N) reconstruction and the workspace, which holds the
    caches that :func:`backward` consumes. Both live in the workspace's
    buffers: they are valid until the next pass in the same workspace.
    """
    act = np.asarray(x, dtype=np.float64)
    if workspace is None:
        workspace = Workspace(params.specs, len(act), act.shape[1] if act.ndim == 3 else 1)
    for layer, space in zip(params.layers, workspace.layers):
        act = space.forward(layer, act)
    workspace.out = act
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
    until the next backward pass in the same workspace.
    """
    output = caches.out
    if caches.grads is None:
        caches.grads = NetworkParams(params.specs, np.empty_like(params.values))
        caches.d_loss = np.empty(caches.batch * output.shape[1])
    d_act = caches.d_loss[: output.size].reshape(output.shape)
    np.subtract(output, target, out=d_act)
    d_act *= 2.0
    d_act /= output.size

    grads = caches.grads
    for idx in range(len(params.layers) - 1, -1, -1):
        # nothing reads the gradient with respect to the network input
        d_act = caches.layers[idx].backward(
            params.layers[idx], grads.layers[idx], d_act, input_grad=idx > 0
        )
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, each one flat buffer laid out like
    NetworkParams.values, and two scratch vectors of that size for the
    update."""

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
    the state's two scratch vectors. Each operation takes the operands of
    m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t) and
    lr * m_hat / (sqrt(v_hat) + eps) in that order, so every bit is as
    that formula's.
    """
    state.step += 1
    t = state.step
    m, v, g = state.moment1, state.moment2, grads.values
    update, root = state.scratch
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
    raise no warning: a loss that is not finite is a TrainingError. Every
    batch runs in one :class:`Workspace`, which is dropped on return.
    """
    targets = windows.targets
    count = len(windows)
    rng = np.random.default_rng(cfg.seed)
    best_loss = np.inf
    best = params.values.copy()
    state = init_adam(params, learning_rate=cfg.learning_rate)
    space = Workspace(params.specs, min(cfg.batch_size, count), windows.window_length)
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
            out, caches = forward(params, windows.gather(idx), space)
            loss = mse_loss(out, target)
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged: loss became {loss}")
            grads = backward(params, caches, target)
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
