"""In-process span tracing around nodewatch's layer boundaries.

Each traced function is replaced, at every place a ``nodewatch`` module looks
it up (modules import names with ``from .x import y``), by a wrapper that
records a span: name, start, end, the span that was open when it was called,
and a few attributes read from its arguments and result. Spans live in
memory. A process forked from the tracing one (a ``cli`` pool worker) appends
its spans to a file in the spool directory whenever its outermost span ends,
and :meth:`Tracer.collect` merges those files back in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

Attrs = Callable[[inspect.BoundArguments, object], dict]


def _path_bytes(args, result):
    path = args.arguments["path"]
    return {"path": str(path), "bytes": os.path.getsize(path)}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(result)}


def _length(args, result):
    return {"items": len(result)}


def _roc_points(args, result):
    return {"items": len(result.points)}


def _forward_flops(args, result):
    """Matrix-multiply flops of one forward pass, from the shapes alone."""
    params, x = args.arguments["params"], args.arguments["x"]
    batch, steps = (1, x.shape[0]) if x.ndim == 2 else x.shape[:2]
    flops = 0
    for layer in params.layers:
        if type(layer).__name__ == "LstmLayer":
            h = layer.hidden_dim
            flops += 2 * batch * steps * (layer.in_dim + h) * 4 * h
        else:
            flops += 2 * batch * layer.in_dim * layer.out_dim
    return {"flops": flops}


def _kmeans_key(args, result):
    rows = args.arguments["rows"]
    return {"fit": [int(args.arguments["k"]), int(args.arguments["seed"]), list(rows.shape)]}


def _workers(args, result):
    return {"workers": int(args.arguments["cfg"].workers)}


def _epochs(args, result):
    return {"epochs": len(result[1])}


# (module, attribute path, attribute reader). The attribute path names a
# function, or Class.method for methods.
TARGETS: list[tuple[str, str, Attrs | None]] = [
    ("cli", "cmd_generate", None),
    ("cli", "cmd_train", _workers),
    ("cli", "cmd_score", None),
    ("cli", "cmd_evaluate", None),
    ("cli", "_run_train_job", None),
    ("telemetry", "NodeDataset.from_csv", _path_bytes),
    ("telemetry", "NodeDataset.to_csv", _path_bytes),
    ("synthgen", "generate_node", None),
    ("pipeline", "chronological_split", None),
    ("pipeline", "semi_supervised_filter", None),
    ("pipeline", "fit_minmax", None),
    ("pipeline", "apply_minmax", None),
    ("pipeline", "time_consistency_segments", None),
    ("pipeline", "make_windows", _length),
    ("neuralnet", "init_params", None),
    ("neuralnet", "forward", _forward_flops),
    ("neuralnet", "backward", None),
    ("neuralnet", "adam_step", None),
    ("neuralnet", "train_autoencoder", _epochs),
    ("models", "train_node_model", None),
    ("models", "reconstruction_errors", None),
    ("models", "score_node_model", _length),
    ("models", "train_clu_model", None),
    ("models", "score_clu_model", _length),
    ("models", "score_exp_method", _length),
    ("models", "save_trained_model", _written_bytes),
    ("models", "save_cluster_model", _written_bytes),
    ("models", "load_trained_model", None),
    ("models", "load_cluster_model", None),
    ("baselines", "select_k", None),
    ("baselines", "kmeans_fit", _kmeans_key),
    ("baselines", "silhouette", None),
    ("baselines", "assign_clusters", None),
    ("baselines", "cluster_anomaly_probabilities", None),
    ("baselines", "kmeans_score", None),
    ("baselines", "exp_smoothing_scores", None),
    ("scoring", "roc_curve", _roc_points),
    ("scoring", "pool_nodes", None),
    ("scoring", "write_scores_csv", None),
    ("scoring", "read_scores_csv", None),
    ("util", "write_json", None),
    ("util", "read_json", None),
]


@dataclass
class Span:
    id: str
    parent: str | None
    name: str  # "<module>.<attribute path>"
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; install() patches nodewatch, uninstall() restores it."""

    def __init__(self, spool_dir: str | Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._pid = os.getpid()
        self._worker_depth: int | None = None  # stack depth inherited by a fork
        self._seq = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, signature, attrs, args, kwargs):
        if os.getpid() != self._pid:
            # first span in a forked worker: drop the parent's spans, keep
            # its open stack so worker spans point at the span that forked
            self._pid = os.getpid()
            self.spans = []
            self._worker_depth = len(self._stack)
        self._seq += 1
        span_id = f"{self._pid}:{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        span = Span(span_id, parent, name, start, end)
        if attrs is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs = attrs(bound, result)
        self.spans.append(span)
        if self._worker_depth is not None and len(self._stack) == self._worker_depth:
            self._spool()
        return result

    def _spool(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spool_dir / f"spans-{self._pid}.jsonl", "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.attrs]) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Return and clear every span, worker spans included."""
        spans = self.spans
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()
        self.spans = []
        return spans

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, attrs):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, signature, attrs, args, kwargs)

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"nodewatch.{name}") for name, _, _ in TARGETS}
        package = [m for n, m in sys.modules.items() if n.startswith("nodewatch.")]
        for module_name, attr_path, attrs in TARGETS:
            module = modules[module_name]
            name = f"{module_name}.{attr_path}"
            if "." in attr_path:
                cls_name, method = attr_path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    wrapped = self._wrap(name, raw, attrs)
                self._patches.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr_path)
            wrapped = self._wrap(name, original, attrs)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span duration minus the part of its interval its children cover.

    Children may overlap (pool workers run side by side), so the covered
    part is the length of the union of the children's clipped intervals.
    """
    children: dict[str, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.id] = s.duration - covered
    return result


def _ancestor(span: Span, by_id: dict[str, Span], prefix: str) -> Span | None:
    parent = by_id.get(span.parent) if span.parent else None
    while parent is not None and not parent.name.startswith(prefix):
        parent = by_id.get(parent.parent) if parent.parent else None
    return parent


LAYERS = ("cli", "telemetry", "synthgen", "pipeline", "neuralnet", "models", "baselines", "scoring", "util")


def command_spans(spans: list[Span]) -> list[Span]:
    """The spans recorded inside a CLI command: those whose root is ``cli.cmd_*``.

    The benchmark's own output checks call ``models`` functions while the
    tracer is installed; their spans have no command above them and are
    dropped here, so they never count as program work.
    """
    by_id = {s.id: s for s in spans}
    roots: dict[str, Span | None] = {}

    def root(span: Span) -> Span | None:
        if span.id not in roots:
            parent = by_id.get(span.parent) if span.parent else None
            if span.parent is None:
                roots[span.id] = span
            else:
                roots[span.id] = root(parent) if parent is not None else None
        return roots[span.id]

    return [s for s in spans if (r := root(s)) is not None and r.name.startswith("cli.cmd_")]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the CLI commands of one traced round (see README)."""
    spans = command_spans(spans)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)

    loads = named("telemetry.NodeDataset.from_csv")
    m["telemetry.from_csv_s"] = total("telemetry.NodeDataset.from_csv")
    m["telemetry.from_csv_calls"] = len(loads)
    m["telemetry.from_csv_mb_per_s"] = ratio(
        sum(s.attrs["bytes"] for s in loads) / 1e6, m["telemetry.from_csv_s"]
    )
    per_command: dict[str, list[str]] = {}
    for s in loads:
        command = _ancestor(s, by_id, "cli.cmd_")
        per_command.setdefault(command.id if command else "", []).append(s.attrs["path"])
    m["cli.dataset_loads_per_node"] = ratio(
        sum(len(paths) for paths in per_command.values()),
        sum(len(set(paths)) for paths in per_command.values()),
    )
    m["telemetry.to_csv_s"] = total("telemetry.NodeDataset.to_csv")
    m["synthgen.generate_node_s"] = total("synthgen.generate_node")

    train_fwd, infer_fwd = [], []
    for s in named("neuralnet.forward"):
        parent = by_id.get(s.parent)
        caller = parent.name if parent else ""
        if caller == "neuralnet.train_autoencoder":
            train_fwd.append(s)
        elif caller == "models.reconstruction_errors":
            infer_fwd.append(s)
    m["neuralnet.train_autoencoder_s"] = total("neuralnet.train_autoencoder")
    m["neuralnet.forward_s"] = sum(s.duration for s in train_fwd)
    m["neuralnet.backward_s"] = total("neuralnet.backward")
    m["neuralnet.adam_step_s"] = total("neuralnet.adam_step")
    m["neuralnet.train_self_s"] = sum(own[s.id] for s in named("neuralnet.train_autoencoder"))
    m["neuralnet.batches"] = len(train_fwd)
    m["neuralnet.epochs"] = sum(s.attrs["epochs"] for s in named("neuralnet.train_autoencoder"))
    # forward flops plus twice that for the backward pass; matmuls only
    m["neuralnet.train_gflop"] = 3 * sum(s.attrs["flops"] for s in train_fwd) / 1e9
    m["neuralnet.train_gflop_per_s"] = ratio(m["neuralnet.train_gflop"], m["neuralnet.train_autoencoder_s"])
    m["neuralnet.inference_forward_s"] = sum(s.duration for s in infer_fwd)

    fits = named("baselines.kmeans_fit")
    m["baselines.select_k_s"] = total("baselines.select_k")
    m["baselines.kmeans_fit_s"] = total("baselines.kmeans_fit")
    m["baselines.kmeans_fit_calls"] = len(fits)
    m["baselines.kmeans_distinct_fit_ratio"] = ratio(
        len({json.dumps(s.attrs["fit"]) for s in fits}), len(fits)
    )
    m["baselines.silhouette_s"] = total("baselines.silhouette")
    m["baselines.assign_clusters_calls"] = len(named("baselines.assign_clusters"))
    m["baselines.exp_smoothing_s"] = total("baselines.exp_smoothing_scores")
    m["baselines.kmeans_score_s"] = total("baselines.kmeans_score")

    jobs = named("cli._run_train_job")
    m["cli.train_jobs"] = len(jobs)
    m["cli.job_busy_s"] = sum(s.duration for s in jobs)
    capacity = 0.0
    for s in named("cli.cmd_train"):
        if any(_ancestor(j, by_id, "cli.cmd_train") is s for j in jobs):
            capacity += s.attrs["workers"] * s.duration
    m["cli.pool_utilisation"] = ratio(m["cli.job_busy_s"], capacity)

    m["pipeline.make_windows_s"] = total("pipeline.make_windows")
    m["pipeline.apply_minmax_s"] = total("pipeline.apply_minmax")
    m["pipeline.windows"] = sum(s.attrs["items"] for s in named("pipeline.make_windows"))

    m["models.train_node_model_self_s"] = sum(own[s.id] for s in named("models.train_node_model"))
    m["models.reconstruction_errors_s"] = total("models.reconstruction_errors")
    writes = named("models.save_trained_model") + named("models.save_cluster_model")
    m["models.store_write_s"] = sum(s.duration for s in writes)
    m["models.store_read_s"] = total("models.load_trained_model") + total("models.load_cluster_model")
    m["models.store_bytes"] = sum(s.attrs["bytes"] for s in writes)

    roc = named("scoring.roc_curve")
    m["scoring.roc_curve_s"] = total("scoring.roc_curve")
    m["scoring.roc_points"] = sum(s.attrs["items"] for s in roc)
    m["scoring.write_scores_csv_s"] = total("scoring.write_scores_csv")
    m["scoring.read_scores_csv_s"] = total("scoring.read_scores_csv")
    m["scoring.scored_points"] = sum(
        s.attrs["items"]
        for name in ("models.score_node_model", "models.score_clu_model", "models.score_exp_method")
        for s in named(name)
    )

    m["util.write_json_s"] = total("util.write_json")
    m["util.read_json_s"] = total("util.read_json")
    m["trace.spans"] = len(spans)
    return m
