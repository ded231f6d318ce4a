"""Command-line driver: generate data, train the method matrix, score, and
evaluate pooled ROC reports.

Every subcommand takes ``--config <json>`` and ``--out <dir>``. Outputs are
machine-readable (JSON / CSV); determinism is guaranteed by a master seed
from which every (node, method, window) job derives its own stream.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, DataError, TrainingError
from .methods import METHODS, WINDOWED_METHODS, TrainingConfig, method_instance_name, model_path
from .util import check_fields, derive_seed, make_dir, ranged, read_config
from .util import read_bytes, read_json, sha256, write_atomic, write_json

log = logging.getLogger("nodewatch")

DEFAULT_WINDOWS = [5, 10, 20, 40]
SPLIT_RATIO = 0.8  # the share of each node's buckets, oldest first, that trains


@dataclass
class RunConfig:
    """Configuration for the train / score / evaluate subcommands."""

    data_dir: str
    nodes: list[str] | None = None
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    windows: list[int] = ranged("[1, inf)", default_factory=lambda: list(DEFAULT_WINDOWS))
    training: dict = field(default_factory=dict)
    seed: int = 0
    workers: int = ranged("[1, inf)", 1)

    def __post_init__(self) -> None:
        check_fields(self)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; valid names: {list(METHODS)}")
        for key in ("nodes", "methods"):
            if getattr(self, key) == []:
                raise ConfigError(f"{key} list is empty")
        # a node's id is the stem of its file in data_dir
        bad = [n for n in self.nodes or [] if Path(f"{n}.csv").stem != n]
        if bad:
            raise ConfigError(f"nodes {bad} are not file names in data_dir")
        needs_windows = any(m in WINDOWED_METHODS for m in self.methods)
        if needs_windows and not self.windows:
            raise ConfigError("windowed methods requested but windows list is empty")
        # the seed is derived per job
        bad = set(self.training) - ({f.name for f in fields(TrainingConfig)} - {"seed"})
        if bad:
            raise ConfigError(f"unknown training keys: {sorted(bad)}")
        self.training_config(seed=0)

    def method_instances(self) -> list[tuple[str, int | None, str]]:
        """``(method, window, name)`` per instance; windowed methods expand over the windows."""
        return [
            (method, window, method_instance_name(method, window))
            for method in self.methods
            for window in (self.windows if method in WINDOWED_METHODS else [None])
        ]

    def training_config(self, seed: int) -> TrainingConfig:
        return TrainingConfig(seed=seed, **self.training)


def _discover_nodes(cfg: RunConfig) -> list[str]:
    data_dir = Path(cfg.data_dir)
    if not data_dir.is_dir():
        problem = "is not a directory" if data_dir.exists() else "does not exist"
        raise DataError(f"data directory {data_dir} {problem}")
    if cfg.nodes is not None:
        missing = [n for n in cfg.nodes if not (data_dir / f"{n}.csv").exists()]
        if missing:
            raise DataError(f"node datasets not found: {missing}")
        return sorted(cfg.nodes)
    nodes = sorted(p.stem for p in data_dir.glob("*.csv"))
    if not nodes:
        raise DataError(f"no node CSV files found in {data_dir}")
    return nodes


def _load_split(cfg: RunConfig, out_dir: str | Path, node_id: str):
    """A node's dataset, read through its parsed copy in ``out_dir/datasets``
    and split chronologically: every detector a command runs on the node
    gets this one split."""
    from .models import load_node_dataset
    from .pipeline import chronological_split

    dataset = load_node_dataset(
        Path(cfg.data_dir) / f"{node_id}.csv", Path(out_dir) / "datasets" / f"{node_id}.json"
    )
    return chronological_split(dataset, SPLIT_RATIO)


# ---------------------------------------------------------------------------
# train


def _write_loss_history(path: Path, history: list[float]) -> None:
    lines = [f"{epoch},{loss!r}\n" for epoch, loss in enumerate(history)]
    write_atomic(path, "epoch,loss\n" + "".join(lines))


def _run_train_job(args: tuple) -> list[tuple[str, str, str, str]]:
    """Train one node's pending ``(method, window, name)`` instances on one
    split of its dataset; returns one status row per instance. An instance
    whose training fails is recorded as ``failed-training`` and the rest
    still train."""
    from . import models as mdl

    cfg, out_dir, node_id, instances = args
    try:
        train = _load_split(cfg, out_dir, node_id).train
    except DataError as exc:
        return [(node_id, name, "skipped-data", str(exc)) for _, _, name in instances]
    rows = []
    for method, window, name in instances:
        seed = derive_seed(cfg.seed, node_id, name)
        path = model_path(Path(out_dir) / "models", node_id, name)
        try:
            if method == "CLU":
                mdl.save_cluster_model(path, mdl.train_clu_model(train, seed))
            else:
                kind = "dense" if method.startswith("DENSE") else "ruad"
                spec = mdl.ModelSpec(kind=kind, input_dim=train.feature_count, window=window or 1)
                regime = mdl.Regime(semi_supervised=method.endswith("_semi"))
                trained, history = mdl.train_node_model(
                    train, spec, regime, cfg.training_config(seed)
                )
                # the history first, so that a store on disk implies its history
                _write_loss_history(path.with_name(f"{name}_loss.csv"), history)
                mdl.save_trained_model(path, trained)
        except DataError as exc:
            rows.append((node_id, name, "skipped-data", str(exc)))
        except TrainingError as exc:
            rows.append((node_id, name, "failed-training", str(exc)))
        else:
            rows.append((node_id, name, "trained", ""))
    return rows


def cmd_train(cfg: RunConfig, out_dir: Path) -> None:
    nodes = _discover_nodes(cfg)
    store = out_dir / "models"
    rows: list[tuple[str, str, str, str]] = []
    pending: dict[str, list[tuple[str, int | None, str]]] = {}
    for method, window, name in cfg.method_instances():
        if method == "EXP":
            log.info("%s requires no training; skipping", name)
            continue
        for node_id in nodes:
            if model_path(store, node_id, name).exists():
                rows.append((node_id, name, "skipped-exists", ""))
            else:
                pending.setdefault(node_id, []).append((method, window, name))
    jobs = [(cfg, str(out_dir), node_id, pending[node_id]) for node_id in sorted(pending)]
    if jobs:
        # numpy and the engine load once here, so forked workers share them
        from . import models  # noqa: F401

    log.info("training %d nodes, one job each", len(jobs))
    if cfg.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs))) as pool:
            results = list(pool.map(_run_train_job, jobs))
    else:
        results = map(_run_train_job, jobs)
    rows.extend(row for job_rows in results for row in job_rows)

    rows.sort()
    for node_id, name, status, detail in rows:
        if status == "skipped-data":
            log.warning("%s/%s skipped: %s", node_id, name, detail)
        elif status == "failed-training":
            log.warning("%s/%s failed: %s", node_id, name, detail)
    write_json(
        out_dir / "train_log.json",
        {
            "config": {
                key: getattr(cfg, key)
                for key in ("data_dir", "methods", "windows", "training", "seed")
            },
            "jobs": [{"node": n, "model": m, "status": s, "detail": d} for n, m, s, d in rows],
        },
    )
    failed = [(node_id, name) for node_id, name, status, _ in rows if status == "failed-training"]
    if failed:
        raise TrainingError(
            f"{len(failed)} of {len(rows)} model instances failed to train, "
            f"first {'/'.join(failed[0])}; see train_log.json"
        )


# ---------------------------------------------------------------------------
# score / evaluate


def _score_path(out_dir: Path, name: str) -> Path:
    return out_dir / "scores" / f"{name}.csv"


def _warn_missing(cfg: RunConfig, out_dir: Path, name: str, present: list[str]) -> None:
    """One warning naming the configured ``nodes`` that are not in
    ``present``, the nodes of an instance's score file (or of the
    report pooled from it); none when no nodes are configured."""
    missing = [] if cfg.nodes is None else sorted(set(cfg.nodes).difference(present))
    if missing:
        path = _score_path(out_dir, name)
        log.warning("%s: the cached %s has no scores for %s", name, path, missing)


def _compute_scores(cfg: RunConfig, out_dir: Path) -> None:
    """Score every method instance that has no ``scores/<name>.csv`` and
    write the file of each that some node scored, with one line counting
    its nodes and points; an instance no node scored gets no file.

    The instances are scored node by node, from one load and split per
    node. A node is skipped for every instance when its dataset cannot be
    read or split, for an instance without a stored model (training skipped
    it), and for an instance whose detector cannot score it, with one
    warning each. The data directory is read, and the detectors (and numpy)
    load, only when some instance has no score file.
    """
    pending = [
        (method, name)
        for method, _, name in cfg.method_instances()
        if not _score_path(out_dir, name).exists()
    ]
    if not pending:
        return
    from .scoring import write_scores_csv

    nodes = _discover_nodes(cfg)
    from . import models as mdl

    store = out_dir / "models"
    computed: dict[str, list] = {name: [] for _, name in pending}
    for node_id in nodes:
        try:
            split = _load_split(cfg, out_dir, node_id)
        except DataError as exc:
            log.warning("skipping %s for every method: %s", node_id, exc)
            continue
        for method, name in pending:
            path = model_path(store, node_id, name)
            if method == "EXP":
                score, args = mdl.score_exp_method, (split,)
            elif not path.exists():
                log.warning("%s: no model for %s; skipping", name, node_id)
                continue
            elif method == "CLU":
                score, args = mdl.score_clu_model, (mdl.load_cluster_model(path), split.test)
            else:
                score, args = mdl.score_node_model, (mdl.load_trained_model(path), split.test)
            try:
                computed[name].append(score(*args))
            except DataError as exc:
                log.warning("%s: skipping %s: %s", name, node_id, exc)
    for name, series_list in computed.items():
        if series_list:
            write_scores_csv(_score_path(out_dir, name), series_list)
            points = sum(len(s) for s in series_list)
            log.info("%s: scored %d nodes, %d points", name, len(series_list), points)


def _scores(cfg: RunConfig, out_dir: Path, name: str) -> list:
    """An instance's per-node score series, read from its score file and
    narrowed to the configured ``nodes`` (all of them when the config lists
    none), with one warning naming the configured nodes the file lacks;
    none when nothing stands at the file's path (no node scored it)."""
    path = _score_path(out_dir, name)
    if not path.exists():
        return []
    from .scoring import read_scores_csv

    series_list = read_scores_csv(path)
    _warn_missing(cfg, out_dir, name, [s.node_id for s in series_list])
    return [s for s in series_list if cfg.nodes is None or s.node_id in cfg.nodes]


def _no_scores(name: str) -> DataError:
    return DataError(f"{name}: no node produced any scores")


def cmd_score(cfg: RunConfig, out_dir: Path) -> None:
    """Write the missing score files, reading no cached one."""
    _compute_scores(cfg, out_dir)
    for _, _, name in cfg.method_instances():
        if not _score_path(out_dir, name).exists():
            raise _no_scores(name)


SOURCES_FORMAT = 3  # bumped by any change to what evaluate writes


def _report_paths(out_dir: Path, name: str) -> tuple[Path, Path]:
    return out_dir / "reports" / f"{name}_roc.json", out_dir / "reports" / f"{name}_roc.csv"


def _read_sources(path: Path) -> dict:
    """The instances ``reports/sources.json`` records; none when the record
    is missing, unreadable, not JSON or of another ``format``."""
    try:
        record = read_json(path)
    except (OSError, ValueError):
        return {}
    if not (isinstance(record, dict) and record.get("format") == SOURCES_FORMAT):
        return {}
    instances = record.get("instances")
    return instances if isinstance(instances, dict) else {}


def _kept_report(out_dir: Path, name: str, record: object, inputs: dict) -> dict | None:
    """An instance's ``_roc.json`` report when ``record``, its entry in
    ``reports/sources.json``, holds its ``inputs`` (the sorted ``nodes`` or
    None, and its score file's sha256) and the sha256 of both its reports;
    else None. The reports are read only once the inputs match."""
    if inputs["scores_sha256"] is None or not isinstance(record, dict):
        return None
    if any(record.get(key) != value for key, value in inputs.items()):
        return None
    json_path, csv_path = _report_paths(out_dir, name)
    report = read_bytes(json_path)
    digests = {"roc_json_sha256": sha256(report), "roc_csv_sha256": sha256(read_bytes(csv_path))}
    if None in digests.values() or record != {**inputs, **digests}:
        return None
    return json.loads(report)


def _summary_entry(report: dict) -> dict:
    """An instance's ``summary.json`` entry, read from its ``_roc.json`` report."""
    figures = {key: report[key] for key in ("auc", "positives", "negatives")}
    return {**figures, "nodes_scored": len(report["nodes"])}


def _pool_report(out_dir: Path, name: str, series_list: list) -> tuple[dict, dict]:
    """Pool an instance's series into its two report files; returns its
    ``_roc.json`` report and the sha256 of each file, from the bytes
    written."""
    from .scoring import pool_nodes

    if not series_list:
        raise _no_scores(name)
    pooled = pool_nodes(series_list)
    report = pooled.to_dict()
    json_path, csv_path = _report_paths(out_dir, name)
    digests = {
        "roc_json_sha256": sha256(write_json(json_path, report)),
        "roc_csv_sha256": sha256(pooled.write_points_csv(csv_path)),
    }
    return report, digests


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> None:
    """Pool each method instance's scores into its reports and summary entry.

    The missing score files are computed first, as ``score`` computes them.
    Then each instance in config order keeps or pools its reports before
    the next is read. An instance whose score file, ``nodes`` and reports
    are those that ``reports/sources.json`` records keeps its reports
    without reading its score file: its summary entry and missing-node
    warning are read from its ``_roc.json``. The rest are pooled from their
    score files, those just computed too. The reports of instances with no
    entry in the new record (the config does not list them, or their
    pooling failed) are deleted, and the record is written last.
    """
    _compute_scores(cfg, out_dir)
    nodes = None if cfg.nodes is None else sorted(cfg.nodes)
    record_path = out_dir / "reports" / "sources.json"
    recorded = _read_sources(record_path)
    summary: dict[str, dict] = {}
    sources: dict[str, dict] = {}
    for _, _, name in cfg.method_instances():
        inputs = {"nodes": nodes, "scores_sha256": sha256(read_bytes(_score_path(out_dir, name)))}
        report = _kept_report(out_dir, name, recorded.get(name), inputs)
        if report is not None:
            sources[name] = recorded[name]
            _warn_missing(cfg, out_dir, name, report["nodes"])
        else:
            series_list = _scores(cfg, out_dir, name)
            try:
                report, digests = _pool_report(out_dir, name, series_list)
            except DataError as exc:
                # the no-scores error already names the method
                log.error("%s", f"{name}: {exc}" if series_list else exc)
                summary[name] = {"error": str(exc)}
                continue
            sources[name] = {**inputs, **digests}
        summary[name] = entry = _summary_entry(report)
        log.info("%s: AUC %.4f over %d nodes", name, entry["auc"], entry["nodes_scored"])
    reports = {*record_path.parent.glob("*_roc.json"), *record_path.parent.glob("*_roc.csv")}
    for path in reports - {path for name in sources for path in _report_paths(out_dir, name)}:
        path.unlink()
    write_json(out_dir / "summary.json", summary)
    write_json(record_path, {"format": SOURCES_FORMAT, "instances": sources})


def cmd_generate(config_path: Path, out_dir: Path) -> None:
    from .synthgen import SynthConfig, generate_dataset

    cfg = read_config(SynthConfig, config_path)
    generate_dataset(cfg, out_dir)
    log.info(
        "generated %d nodes x %d buckets into %s",
        cfg.node_count,
        cfg.timestep_count,
        out_dir,
    )


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error: one line, exit 1
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nodewatch", description="Per-node HPC telemetry anomaly detection toolkit"
    )
    parser.add_argument("command", choices=("generate", "train", "score", "evaluate"))
    parser.add_argument("--config", required=True, type=Path, help="JSON config file")
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "generate":
            cmd_generate(args.config, args.out)
        else:
            cfg = read_config(RunConfig, args.config)
            make_dir(args.out)
            if args.command == "train":
                cmd_train(cfg, args.out)
            elif args.command == "score":
                cmd_score(cfg, args.out)
            else:
                cmd_evaluate(cfg, args.out)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 1
    except OSError as exc:  # a file that is missing, a directory or unreadable
        log.error("cannot read or write %s: %s", exc.filename, exc.strerror)
        return 2
    except DataError as exc:
        log.error("data error: %s", exc)
        return 2
    except TrainingError as exc:
        log.error("training failed: %s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
