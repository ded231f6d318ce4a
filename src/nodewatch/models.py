"""Detector construction and per-node orchestration.

Ties the pipeline, the network engine and the baselines together: builds
the two autoencoder architectures at their published shapes, trains them
with or without the semi-supervised filter, and turns a trained model plus a
test set into a per-bucket score series. Also owns the on-disk model store
(one JSON per node and method).
"""

from __future__ import annotations

import base64
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import neuralnet as nn
from .baselines import (
    KMeansModel,
    anomaly_probability,
    assign_clusters,
    cluster_anomaly_probabilities,
    exp_smoothing_scores,
    kmeans_fit,  # noqa: F401  (re-exported; perfbench's tracer tests patch it here)
    kmeans_score,
    select_k,
)
from .errors import DataError
from .methods import (  # noqa: F401  (the method names are re-exported)
    METHODS,
    WINDOWED_METHODS,
    TrainingConfig,
    method_instance_name,
    model_path,
)
from .pipeline import (
    ScalerParams,
    SplitDataset,
    apply_minmax,
    fit_minmax,
    make_windows,
    semi_supervised_filter,
)
from .scoring import ScoreSeries
from .telemetry import NodeDataset
from .util import read_json, write_json

log = logging.getLogger(__name__)

ENCODER_DIM = 16
LATENT_DIM = 8
DECODER_DIM = 16

# windows per scoring chunk: a recurrent chunk's caches grow with W and its errors are the same
# bits at any chunk size; dense errors depend on the chunk's row count through the BLAS path
SCORE_BATCH = 512
RECURRENT_SCORE_BATCH = 128

# keeps the error normalizer positive when a model reconstructs its training set exactly
MAX_ERROR_FLOOR = 1e-12


@dataclass(frozen=True)
class Regime:
    """Whether an autoencoder trains on its label-0 rows only (windows never cross a gap)."""

    semi_supervised: bool


REGIMES: dict[str, Regime] = {
    "DENSE_semi": Regime(semi_supervised=True),
    "DENSE_un": Regime(semi_supervised=False),
    "RUAD_semi": Regime(semi_supervised=True),
    "RUAD": Regime(semi_supervised=False),
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor for the two autoencoder families.

    ``dense`` reconstructs one row (window 1); ``ruad`` encodes a window of
    rows through two LSTM layers and reconstructs the final row.
    """

    kind: str  # "dense" | "ruad"
    input_dim: int
    window: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("dense", "ruad"):
            raise DataError(f"unknown model kind {self.kind!r}")
        # a stored spec is JSON: 5.5 or true would pass a bare range test
        if type(self.input_dim) is not int or self.input_dim < 1:
            raise DataError(f"input_dim must be an integer >= 1, not {self.input_dim!r}")
        if type(self.window) is not int or self.window < 1:
            raise DataError(f"window must be an integer >= 1, not {self.window!r}")
        if self.kind == "dense" and self.window != 1:
            raise DataError(f"a dense model reads one row, not a window of {self.window}")


def layer_specs(spec: ModelSpec) -> list[nn.LayerSpec]:
    """The layers of the architecture ``spec`` names."""
    n = spec.input_dim
    if spec.kind == "dense":
        return [
            nn.DenseSpec(n, ENCODER_DIM, "relu"),
            nn.DenseSpec(ENCODER_DIM, LATENT_DIM, "relu"),
            nn.DenseSpec(LATENT_DIM, DECODER_DIM, "relu"),
            nn.DenseSpec(DECODER_DIM, n, "sigmoid"),
        ]
    return [
        nn.LstmSpec(n, ENCODER_DIM, return_sequence=True),
        nn.LstmSpec(ENCODER_DIM, LATENT_DIM, return_sequence=False),
        nn.DenseSpec(LATENT_DIM, DECODER_DIM, "relu"),
        nn.DenseSpec(DECODER_DIM, n, "sigmoid"),
    ]


@dataclass
class TrainedModel:
    """A trained autoencoder plus everything needed to score new data."""

    node_id: str
    spec: ModelSpec
    network: nn.NetworkParams
    scaler: ScalerParams
    max_train_error: float
    regime: Regime
    seed: int
    training: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not np.isfinite(self.max_train_error) or self.max_train_error <= 0:
            raise DataError("max_train_error must be finite and > 0")


def reconstruction_errors(params: nn.NetworkParams, windows) -> np.ndarray:
    """Per-window L1 error between reconstruction and target, in chunks
    gathered from the rows. An error too large for a float is inf, with no
    warning: it scores 1 after the clamp."""
    errors, targets = np.empty(len(windows)), windows.targets
    chunk = SCORE_BATCH if windows.window_length == 1 else RECURRENT_SCORE_BATCH
    for lo in range(0, len(windows), chunk):
        out = nn.forward(params, windows.gather(slice(lo, lo + chunk)))[0]
        with np.errstate(over="ignore"):
            errors[lo : lo + chunk] = np.abs(out - targets[lo : lo + chunk]).sum(axis=1)
    return errors


def train_node_model(
    train: NodeDataset, spec: ModelSpec, regime: Regime, cfg: TrainingConfig
) -> tuple[TrainedModel, list[float]]:
    """Full training pipeline for one node's training split and one
    autoencoder variant.

    Optional semi-supervised filter, min/max scaling fitted on the
    (filtered) rows, time-consistent windowing, then mini-batch training.
    The stored ``max_train_error`` is the largest L1 reconstruction error
    over the training windows actually used.
    """
    if regime.semi_supervised:
        train = semi_supervised_filter(train)
    scaler = fit_minmax(train)
    windows = make_windows(apply_minmax(scaler, train), spec.window)
    if len(windows) == 0:
        raise DataError(
            f"{train.node_id}: no training windows survive time-consistency "
            f"filtering with W={spec.window} ({len(train)} rows available)"
        )

    network = nn.init_params(layer_specs(spec), cfg.seed)
    network, history = nn.train_autoencoder(network, windows, cfg)

    max_error = float(reconstruction_errors(network, windows).max())
    model = TrainedModel(
        node_id=train.node_id,
        spec=spec,
        network=network,
        scaler=scaler,
        max_train_error=max(max_error, MAX_ERROR_FLOOR),
        regime=regime,
        seed=cfg.seed,
        training=asdict(cfg),
    )
    return model, history


def score_node_model(model: TrainedModel, test: NodeDataset) -> ScoreSeries:
    """Score a test set with a trained autoencoder.

    The stored scaler is applied as-is, windows never cross a gap between
    buckets, and each window's target timestep receives the clamped
    normalized reconstruction error. Labels pass through untouched; they
    never influence the probabilities. A test set too short or too gappy
    for one window gives an empty series.
    """
    windows = make_windows(apply_minmax(model.scaler, test), model.spec.window)
    if len(windows) == 0:
        log.warning(
            "%s: no scoreable windows (need >= %d consecutive buckets)",
            test.node_id,
            model.spec.window,
        )
    errors = reconstruction_errors(model.network, windows)
    return ScoreSeries(
        node_id=test.node_id,
        bucket_starts=windows.target_bucket_starts,
        probabilities=anomaly_probability(errors / model.max_train_error),
        labels=windows.target_labels,
    )


# ---------------------------------------------------------------------------
# baseline runners (same split/scale pipeline, no neural network)


@dataclass
class ClusterModel:
    """K-means detector bundle: scaler, centroids and per-cluster rates."""

    node_id: str
    scaler: ScalerParams
    kmeans: KMeansModel
    seed: int


def train_clu_model(train: NodeDataset, seed: int) -> ClusterModel:
    """Fit k-means on a node's scaled training rows and attach label-derived
    rates.

    This is the one detector whose training consumes labels even in the
    unsupervised regime: cluster anomaly probabilities cannot be derived
    from geometry alone.
    """
    scaler = fit_minmax(train)
    rows = apply_minmax(scaler, train).features
    k, centroids = select_k(rows, seed=seed)
    probs = cluster_anomaly_probabilities(assign_clusters(rows, centroids), train.labels, k)
    return ClusterModel(
        node_id=train.node_id,
        scaler=scaler,
        kmeans=KMeansModel(k=k, centroids=centroids, cluster_anomaly_prob=probs, seed=seed),
        seed=seed,
    )


def score_clu_model(model: ClusterModel, test: NodeDataset) -> ScoreSeries:
    """Each test row's nearest-cluster rate; a row that overflowed when scaled is a DataError."""
    scaled = apply_minmax(model.scaler, test)
    if not np.isfinite(scaled.features).all():
        raise DataError("scaled test rows contain non-finite values")
    return ScoreSeries(
        node_id=test.node_id,
        bucket_starts=test.bucket_starts,
        probabilities=kmeans_score(model.kmeans, scaled.features),
        labels=test.labels,
    )


def score_exp_method(split: SplitDataset, alpha: float) -> ScoreSeries:
    """Training-free smoothing baseline over the test split.

    The scaler is still fitted on the training split (scaling is part of the
    shared pipeline), but no model state is learned or stored.
    """
    return exp_smoothing_scores(apply_minmax(fit_minmax(split.train), split.test), alpha)


# ---------------------------------------------------------------------------
# model store
#
# A store is one JSON object: a header of plain values, ``"format": 3``, and
# every float64 array as {"shape": [...], "f8": <base64 of its little-endian
# bytes>}. Arrays pass through one codec, ``_encode_array`` on the way out and
# ``_decode_array`` on the way in. An autoencoder's ``network`` is its one
# parameter vector, ``NetworkParams.values``.

STORE_FORMAT = 3


def _encode_array(obj: object) -> dict:
    """json ``default`` hook: a float64 array as its shape and base64 bytes."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"a model store cannot hold {type(obj).__name__}")
    data = base64.b64encode(obj.astype("<f8", copy=False).tobytes())
    return {"shape": list(obj.shape), "f8": data.decode("ascii")}


def _decode_array(d: dict) -> object:
    """json ``object_hook``: an encoded array back as a writable native
    float64 copy, checked whole and finite; any other object as it is."""
    if "f8" not in d:
        return d
    shape = d["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DataError(f"array shape {shape!r} is not a list of sizes")
    try:
        data = base64.b64decode(d["f8"], validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise DataError(f"array payload is not base64 ({exc})") from None
    if len(data) != 8 * math.prod(shape):
        raise DataError(
            f"array payload holds {len(data)} bytes, shape {shape} needs {8 * math.prod(shape)}"
        )
    array = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(array).all():
        raise DataError(f"array of shape {shape} holds a value that is not finite")
    return array


def _write_store(
    store_dir: str | Path, name: str, kind: str, model: TrainedModel | ClusterModel, **entries
) -> Path:
    """Write ``model``'s store under ``name``: the header both kinds share, then ``entries``."""
    path = model_path(store_dir, model.node_id, name)
    scaler = {"min": model.scaler.minimum, "max": model.scaler.maximum}
    header = dict(kind=kind, name=name, node_id=model.node_id, seed=model.seed, scaler=scaler)
    write_json(path, {"format": STORE_FORMAT, **header, **entries}, default=_encode_array)
    return path


def _read_store(path: str | Path) -> tuple[dict, ScalerParams]:
    """A store's entries and its scaler."""
    d = read_json(path, object_hook=_decode_array)
    if not isinstance(d, dict):
        raise DataError("not a model file: the top level is not a JSON object")
    if d.get("format") != STORE_FORMAT:
        raise DataError(
            f"store format {d.get('format', 1)}, not {STORE_FORMAT}: written by an "
            "older nodewatch, so it must be retrained"
        )
    return d, ScalerParams(d["scaler"]["min"], d["scaler"]["max"])


def save_trained_model(store_dir: str | Path, name: str, model: TrainedModel) -> Path:
    return _write_store(
        store_dir,
        name,
        model.spec.kind,
        model,
        model_spec=asdict(model.spec),
        regime=asdict(model.regime),
        max_train_error=model.max_train_error,
        network=model.network.values,
        training=model.training,
    )


def _from_stored(cls, d: dict, entry: str):
    """Build ``cls`` from a stored entry that holds exactly its fields."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise DataError(
            f"unknown {entry} keys {sorted(unknown)}: the store was written by "
            "another nodewatch version and must be retrained"
        )
    return cls(**d)


@contextmanager
def _reading_store(path: str | Path):
    """Turn a damaged or outdated model file into a one-line DataError that
    names the file."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a readable model file ({exc})") from exc
    except KeyError as exc:
        raise DataError(f"{path}: model file has no {exc} entry") from exc
    # an entry of the wrong type or with a missing field, or a value numpy cannot take
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_trained_model(path: str | Path) -> TrainedModel:
    with _reading_store(path):
        d, scaler = _read_store(path)
        spec = _from_stored(ModelSpec, d["model_spec"], "model_spec")
        if scaler.minimum.shape != (spec.input_dim,):
            raise DataError(
                f"scaler has shape {scaler.minimum.shape}, model_spec gives ({spec.input_dim},)"
            )
        specs, values = layer_specs(spec), d["network"]
        count = nn.parameter_count(specs)
        if not (isinstance(values, np.ndarray) and values.shape == (count,)):
            got = getattr(values, "shape", type(values).__name__)
            raise DataError(f"network is {got}, model_spec gives an array of {count} parameters")
        return TrainedModel(
            node_id=d["node_id"],
            spec=spec,
            network=nn.NetworkParams(specs, values),
            scaler=scaler,
            max_train_error=d["max_train_error"],
            regime=_from_stored(Regime, d["regime"], "regime"),
            seed=d["seed"],
            training=d.get("training", {}),
        )


def save_cluster_model(store_dir: str | Path, name: str, model: ClusterModel) -> Path:
    return _write_store(store_dir, name, "clu", model, kmeans=asdict(model.kmeans))


def load_cluster_model(path: str | Path) -> ClusterModel:
    with _reading_store(path):
        d, scaler = _read_store(path)
        kmeans = _from_stored(KMeansModel, d["kmeans"], "kmeans")
        if kmeans.centroids.shape[1:] != scaler.minimum.shape:
            raise DataError(
                f"centroids have {kmeans.centroids.shape[1]} columns, the scaler "
                f"{len(scaler.minimum)} features"
            )
        return ClusterModel(node_id=d["node_id"], scaler=scaler, kmeans=kmeans, seed=d["seed"])
