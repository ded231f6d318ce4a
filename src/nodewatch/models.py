"""Detector construction and per-node orchestration.

Ties the pipeline, the network engine and the baselines together: builds
the two autoencoder architectures at their published shapes, trains them
with or without the semi-supervised filter, and turns a trained model plus a
test set into a per-bucket score series. Also owns the JSON files that hold
arrays: the model store (one file per node and method) and each node's
parsed dataset copy.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import neuralnet as nn
from .baselines import (
    EXP_ALPHA,
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
from .methods import (  # noqa: F401  (the method names and model_path are re-exported)
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

ENCODER_DIM = 16
LATENT_DIM = 8
DECODER_DIM = 16

# windows per scoring pass, for both stacks: a network's output bits depend on how many windows
# a pass holds (the BLAS path), so every pass holds this many; it is small because a recurrent
# pass's forward caches grow with W
SCORE_BATCH = 128

# keeps the error normalizer positive when a model reconstructs its training set exactly
MAX_ERROR_FLOOR = 1e-12


@dataclass(frozen=True)
class Regime:
    """Whether an autoencoder trains on its label-0 rows only (windows never cross a gap)."""

    semi_supervised: bool

    def __post_init__(self) -> None:
        # a stored regime is JSON, where "no" or 0 would pass as a truth value
        if not isinstance(self.semi_supervised, bool):
            raise DataError(f"semi_supervised must be true or false, not {self.semi_supervised!r}")


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
        # a stored spec's window is JSON, where 5.5 or true would pass a bare
        # range test; input_dim is the scaler's width, checked the same way
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
    """A trained autoencoder, all that scoring new data needs, and its ``training`` settings."""

    spec: ModelSpec
    network: nn.NetworkParams
    scaler: ScalerParams
    max_train_error: float
    regime: Regime
    training: dict

    def __post_init__(self) -> None:
        # a stored value is JSON, where true would pass as 1.0
        error = self.max_train_error
        if isinstance(error, bool) or not (np.isfinite(error) and error > 0):
            raise DataError(f"max_train_error must be a finite number > 0, not {error!r}")


@np.errstate(over="ignore", invalid="ignore")
def reconstruction_errors(params: nn.NetworkParams, windows) -> np.ndarray:
    """Per-window L1 error between reconstruction and target, as float64
    values computed in nn.COMPUTE_DTYPE (float32), like training: the
    network and the rows are cast to it. Passes of SCORE_BATCH windows share
    one workspace, the last padded with copies of the last window, so a
    window's error does not depend on the windows around it. A window
    holding a value beyond float32's range, and an error too large for it,
    are inf, with no warning: each scores 1 after the clamp. A network whose
    values overflow warns neither; an error that is NaN is refused where it
    is used."""
    params = nn.NetworkParams(params.specs, params.values.astype(nn.COMPUTE_DTYPE))
    windows = windows.astype(nn.COMPUTE_DTYPE)
    errors, targets = np.empty(len(windows)), windows.targets
    space = nn.Workspace(nn.COMPUTE_DTYPE)
    for lo in range(0, len(windows), SCORE_BATCH):
        pick = np.minimum(np.arange(lo, lo + SCORE_BATCH), len(windows) - 1)
        out = nn.forward(params, windows.gather(pick), space)[0]
        hi = min(lo + SCORE_BATCH, len(windows))
        errors[lo:hi] = np.abs(out[: hi - lo] - targets[lo:hi]).sum(axis=1)
    finite = np.isfinite(windows.rows).all(axis=1)
    if not finite.all():
        # gathered over each row's flag: the windows that hold a row beyond float32
        errors[~replace(windows, rows=finite).gather(slice(None)).all(axis=1)] = np.inf
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
        spec=spec,
        network=network,
        scaler=scaler,
        max_train_error=max(max_error, MAX_ERROR_FLOOR),
        regime=regime,
        training=asdict(cfg),
    )
    return model, history


def score_node_model(model: TrainedModel, test: NodeDataset) -> ScoreSeries:
    """Score a test set with a trained autoencoder.

    The stored scaler is applied as-is, windows never cross a gap between
    buckets, and each window's target timestep receives the clamped
    normalized reconstruction error. Labels pass through untouched; they
    never influence the probabilities. A test set too short or too gappy
    for one window is a DataError.
    """
    windows = make_windows(apply_minmax(model.scaler, test), model.spec.window)
    if len(windows) == 0:
        raise DataError(f"no scoreable windows (need >= {model.spec.window} consecutive buckets)")
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

    scaler: ScalerParams
    kmeans: KMeansModel


def train_clu_model(train: NodeDataset, seed: int) -> ClusterModel:
    """Fit k-means on a node's scaled training rows and attach label-derived
    rates.

    This is the one detector whose training consumes labels even in the
    unsupervised regime: cluster anomaly probabilities cannot be derived
    from geometry alone.
    """
    scaler = fit_minmax(train)
    rows = apply_minmax(scaler, train).features
    k, centroids = select_k(rows, seed)
    probs = cluster_anomaly_probabilities(assign_clusters(rows, centroids), train.labels, k)
    return ClusterModel(
        scaler=scaler,
        kmeans=KMeansModel(centroids=centroids, cluster_anomaly_prob=probs, seed=seed),
    )


def score_clu_model(model: ClusterModel, test: NodeDataset) -> ScoreSeries:
    """Each test row's nearest-cluster rate."""
    scaled = apply_minmax(model.scaler, test)
    return ScoreSeries(
        node_id=test.node_id,
        bucket_starts=test.bucket_starts,
        probabilities=kmeans_score(model.kmeans, scaled.features),
        labels=test.labels,
    )


def score_exp_method(split: SplitDataset) -> ScoreSeries:
    """Training-free smoothing baseline over the test split.

    The scaler is still fitted on the training split (scaling is part of the
    shared pipeline), but no model state is learned or stored.
    """
    return exp_smoothing_scores(apply_minmax(fit_minmax(split.train), split.test), EXP_ALPHA)


# ---------------------------------------------------------------------------
# model store
#
# A store is one JSON object: ``"format": 4`` and the entries its loader
# reads, no more (its path gives the node and the name, and the scaler's
# width the input width), with every float64 array as {"shape": [...], "f8":
# <base64 of its little-endian bytes>}. Arrays pass through one codec,
# ``_encode_array`` on the way out and ``_decode_array`` on the way in; it
# writes an int64 array as {"shape": [...], "i8": ...}, which only dataset
# copies hold. An autoencoder's ``network`` is its one parameter vector,
# ``NetworkParams.values``.

STORE_FORMAT = 4

_ARRAY_KINDS = {"f8": np.float64, "i8": np.int64}


def _encode_array(obj: object) -> dict:
    """json ``default`` hook: an array as its shape and base64 bytes, int64
    for a signed integer array and float64 for any other."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"cannot store {type(obj).__name__} as an array")
    kind = "i8" if obj.dtype.kind == "i" else "f8"
    data = base64.b64encode(obj.astype(f"<{kind}", copy=False).tobytes())
    return {"shape": list(obj.shape), kind: data.decode("ascii")}


def _decode_array(d: dict) -> object:
    """json ``object_hook``: an encoded array back as a writable native
    float64 or int64 copy, checked whole and, for float64, finite; any other
    object as it is."""
    kind = next((k for k in _ARRAY_KINDS if k in d), None)
    if kind is None:
        return d
    shape = d["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DataError(f"array shape {shape!r} is not a list of sizes")
    try:
        data = base64.b64decode(d[kind], validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise DataError(f"array payload is not base64 ({exc})") from None
    if len(data) != 8 * math.prod(shape):
        raise DataError(
            f"array payload holds {len(data)} bytes, shape {shape} needs {8 * math.prod(shape)}"
        )
    array = np.frombuffer(data, dtype=f"<{kind}").astype(_ARRAY_KINDS[kind]).reshape(shape)
    if kind == "f8" and not np.isfinite(array).all():
        raise DataError(f"array of shape {shape} holds a value that is not finite")
    return array


def _write_store(path: str | Path, model: TrainedModel | ClusterModel, **entries) -> Path:
    """Write ``model``'s store to ``path``: the format, the scaler, then ``entries``."""
    scaler = {"min": model.scaler.minimum, "max": model.scaler.maximum}
    write_json(path, {"format": STORE_FORMAT, "scaler": scaler, **entries}, default=_encode_array)
    return Path(path)


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


def save_trained_model(path: str | Path, model: TrainedModel) -> Path:
    return _write_store(
        path,
        model,
        model_spec={"kind": model.spec.kind, "window": model.spec.window},
        regime=asdict(model.regime),
        max_train_error=model.max_train_error,
        network=model.network.values,
        training=model.training,
    )


def _from_stored(cls, d: dict, entry: str, **derived):
    """Build ``cls`` from a stored entry that holds exactly its fields, those
    with a default too, except ``derived``, which the loader gives."""
    stored = {f.name for f in fields(cls)} - derived.keys()
    unknown, missing = set(d) - stored, stored - set(d)
    if unknown:
        raise DataError(
            f"unknown {entry} keys {sorted(unknown)}: the store was written by "
            "another nodewatch version and must be retrained"
        )
    if missing:
        raise DataError(f"missing {entry} keys {sorted(missing)}")
    return cls(**d, **derived)


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
    except DataError as exc:  # before ValueError, its base
        raise DataError(f"{path}: {exc}") from exc
    # an entry of the wrong type, or a value numpy cannot take
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc


def load_trained_model(path: str | Path) -> TrainedModel:
    with _reading_store(path):
        d, scaler = _read_store(path)
        # the scaler's width is the input width, so a network that does not
        # fit the scaler fails the parameter count
        width = len(scaler.minimum)
        spec = _from_stored(ModelSpec, d["model_spec"], "model_spec", input_dim=width)
        specs, values = layer_specs(spec), d["network"]
        count = nn.parameter_count(specs)
        if not (isinstance(values, np.ndarray) and values.shape == (count,)):
            got = getattr(values, "shape", type(values).__name__)
            raise DataError(f"network is {got}, the model needs an array of {count} parameters")
        return TrainedModel(
            spec=spec,
            network=nn.NetworkParams(specs, values),
            scaler=scaler,
            max_train_error=d["max_train_error"],
            regime=_from_stored(Regime, d["regime"], "regime"),
            training=d["training"],
        )


def save_cluster_model(path: str | Path, model: ClusterModel) -> Path:
    return _write_store(path, model, kmeans=asdict(model.kmeans))


def load_cluster_model(path: str | Path) -> ClusterModel:
    with _reading_store(path):
        d, scaler = _read_store(path)
        kmeans = _from_stored(KMeansModel, d["kmeans"], "kmeans")
        if kmeans.centroids.shape[1:] != scaler.minimum.shape:
            raise DataError(
                f"centroids have {kmeans.centroids.shape[1]} columns, the scaler "
                f"{len(scaler.minimum)} features"
            )
        return ClusterModel(scaler=scaler, kmeans=kmeans)


# ---------------------------------------------------------------------------
# parsed node datasets
#
# ``<out>/datasets/<node>.json`` holds a node's dataset as NodeDataset.from_csv
# parsed it, with the sha256 of the CSV bytes it came from and the sha256 of
# its own content. It stands in for the CSV only while the CSV's bytes have
# that digest, and it is written only from a successful parse, so the CSV
# stays the one source of truth and deleting a copy is always safe.

DATASET_FORMAT = 1
_DATASET_ARRAYS = ("bucket_starts", "labels", "features")


def _content_sha256(feature_names: list, arrays: list[np.ndarray]) -> str:
    """sha256 of a dataset copy's content: the feature names, then each
    array's dtype, shape and bytes."""
    digest = hashlib.sha256(json.dumps(feature_names).encode("utf-8"))
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _read_dataset_copy(path: Path, node_id: str, csv_sha256: str) -> NodeDataset:
    """The dataset a copy holds, when it records ``csv_sha256`` and its
    content matches its own digest; a DataError otherwise."""
    d = read_json(path, object_hook=_decode_array)
    if not (
        isinstance(d, dict)
        and d.get("format") == DATASET_FORMAT
        and d.get("csv_sha256") == csv_sha256
    ):
        raise DataError(f"{path}: not a copy of the current dataset file")
    arrays = [d[key] for key in _DATASET_ARRAYS]
    names = d["feature_names"]
    if not all(isinstance(a, np.ndarray) for a in arrays) or (
        _content_sha256(names, arrays) != d["content_sha256"]
    ):
        raise DataError(f"{path}: content does not match its digest")
    return NodeDataset(node_id, feature_names=names, **dict(zip(_DATASET_ARRAYS, arrays)))


def load_node_dataset(csv_path: Path, copy_path: Path) -> NodeDataset:
    """The node dataset in ``csv_path``, read through its parsed copy at
    ``copy_path``.

    The CSV's bytes are read once and hashed. A copy that records their
    sha256 is returned. Otherwise those same bytes go to
    NodeDataset.from_csv, and what it returns is written to ``copy_path``
    (atomically) and returned. A copy that cannot be read, fails a codec
    check, records another digest or format, or whose content does not match
    its own digest is rebuilt this way, without a warning. A CSV that cannot
    be read or fails to parse is a DataError naming it and writes no copy.
    """
    try:
        data = csv_path.read_bytes()
    except OSError as exc:
        raise DataError(f"{csv_path}: cannot read the dataset file ({exc.strerror})") from None
    csv_sha256 = hashlib.sha256(data).hexdigest()
    try:
        return _read_dataset_copy(copy_path, csv_path.stem, csv_sha256)
    # missing, unreadable, damaged or stale (a DataError is a ValueError): rebuilt from the CSV
    except (OSError, ValueError, KeyError, TypeError):
        pass
    dataset = NodeDataset.from_csv(csv_path, data)
    arrays = [getattr(dataset, key) for key in _DATASET_ARRAYS]
    header = dict(
        format=DATASET_FORMAT,
        csv_sha256=csv_sha256,
        content_sha256=_content_sha256(dataset.feature_names, arrays),
        feature_names=dataset.feature_names,
    )
    write_json(copy_path, {**header, **dict(zip(_DATASET_ARRAYS, arrays))}, default=_encode_array)
    return dataset
