"""Command-line driver: generate data, train the method matrix, score, and
evaluate pooled ROC reports.

Every subcommand takes ``--config <json>`` and ``--out <dir>``. Outputs are
machine-readable (JSON / CSV); determinism is guaranteed by a master seed
from which every (node, method, window) job derives its own stream.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, DataError, TrainingError
from .methods import METHODS, WINDOWED_METHODS, TrainingConfig, method_instance_name, model_path
from .util import check_fields, derive_seed, make_dir, ranged, read_config
from .util import write_atomic, write_json

log = logging.getLogger("nodewatch")

DEFAULT_WINDOWS = [5, 10, 20, 40]


@dataclass
class RunConfig:
    """Configuration for the train / score / evaluate subcommands."""

    data_dir: str
    nodes: list[str] | None = None
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    windows: list[int] = ranged("[1, inf)", default_factory=lambda: list(DEFAULT_WINDOWS))
    split_ratio: float = ranged("(0, 1)", 0.8)
    training: dict = field(default_factory=dict)
    exp_alpha: float = ranged("(0, 1]", 0.1)
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

    def method_instances(self) -> list[tuple[str, int | None]]:
        """Expand windowed methods over the configured window lengths."""
        instances: list[tuple[str, int | None]] = []
        for method in self.methods:
            if method in WINDOWED_METHODS:
                instances.extend((method, w) for w in self.windows)
            else:
                instances.append((method, None))
        return instances

    def training_config(self, seed: int) -> TrainingConfig:
        return TrainingConfig(seed=seed, **self.training)


def _discover_nodes(cfg: RunConfig) -> list[str]:
    data_dir = Path(cfg.data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory {data_dir} does not exist")
    if cfg.nodes is not None:
        missing = [n for n in cfg.nodes if not (data_dir / f"{n}.csv").exists()]
        if missing:
            raise DataError(f"node datasets not found: {missing}")
        return sorted(cfg.nodes)
    nodes = sorted(p.stem for p in data_dir.glob("*.csv"))
    if not nodes:
        raise DataError(f"no node CSV files found in {data_dir}")
    return nodes


def _load_split(cfg: RunConfig, node_id: str):
    """A node's dataset, read from its file and split chronologically: every
    detector a command runs on the node gets this one split."""
    from .pipeline import chronological_split
    from .telemetry import NodeDataset

    dataset = NodeDataset.from_csv(Path(cfg.data_dir) / f"{node_id}.csv")
    return chronological_split(dataset, cfg.split_ratio)


# ---------------------------------------------------------------------------
# train


def _write_loss_history(path: Path, history: list[float]) -> None:
    lines = [f"{epoch},{loss!r}\n" for epoch, loss in enumerate(history)]
    write_atomic(path, "epoch,loss\n" + "".join(lines))


def _run_train_job(args: tuple) -> list[tuple[str, str, str, str]]:
    """Train one node's pending ``(method, window, name)`` instances on one
    split of its dataset; returns one status row per instance."""
    from . import models as mdl

    cfg, out_dir, node_id, instances = args
    store = Path(out_dir) / "models"
    try:
        train = _load_split(cfg, node_id).train
    except DataError as exc:
        return [(node_id, name, "skipped-data", str(exc)) for _, _, name in instances]
    rows = []
    for method, window, name in instances:
        seed = derive_seed(cfg.seed, node_id, name)
        try:
            if method == "CLU":
                mdl.save_cluster_model(store, name, mdl.train_clu_model(train, seed))
            else:
                kind = "dense" if method.startswith("DENSE") else "ruad"
                spec = mdl.ModelSpec(kind=kind, input_dim=train.feature_count, window=window or 1)
                trained, history = mdl.train_node_model(
                    train, spec, mdl.REGIMES[method], cfg.training_config(seed)
                )
                mdl.save_trained_model(store, name, trained)
                _write_loss_history(store / node_id / f"{name}_loss.csv", history)
        except DataError as exc:
            rows.append((node_id, name, "skipped-data", str(exc)))
        else:
            rows.append((node_id, name, "trained", ""))
    return rows


def cmd_train(cfg: RunConfig, out_dir: Path) -> None:
    nodes = _discover_nodes(cfg)
    store = out_dir / "models"
    rows: list[tuple[str, str, str, str]] = []
    pending: dict[str, list[tuple[str, int | None, str]]] = {}
    for method, window in cfg.method_instances():
        name = method_instance_name(method, window)
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

    for node_id, name, status, detail in sorted(rows):
        if status == "skipped-data":
            log.warning("%s/%s skipped: %s", node_id, name, detail)
    write_json(
        out_dir / "train_log.json",
        {
            "config": {
                key: getattr(cfg, key)
                for key in ("data_dir", "methods", "windows", "split_ratio", "training", "seed")
            },
            "jobs": [
                {"node": n, "model": m, "status": s, "detail": d}
                for n, m, s, d in sorted(rows)
            ],
        },
    )


# ---------------------------------------------------------------------------
# score / evaluate


def _read_cached_scores(cfg: RunConfig, name: str, path: Path) -> list:
    """A cached score file's series, narrowed to the configured ``nodes``
    (all of them when the config lists none); one warning names the
    configured nodes the file lacks."""
    from .scoring import read_scores_csv

    series_list = read_scores_csv(path)
    if cfg.nodes is None:
        return series_list
    missing = sorted(set(cfg.nodes) - {s.node_id for s in series_list})
    if missing:
        log.warning("%s: the cached %s has no scores for %s", name, path, missing)
    return [s for s in series_list if s.node_id in cfg.nodes]


def _load_or_compute_scores(cfg: RunConfig, out_dir: Path) -> dict[str, list]:
    """Each method instance's per-node score series, in config order.

    A cached ``scores/<name>.csv`` is read back, keeping the configured
    nodes. The other instances are scored node by node, from one load and
    split per node, and their files are written in config order. A node is
    skipped for every instance when its dataset cannot be read or split,
    for an instance without a stored model (training skipped it), and for
    an instance whose detector cannot score it, with one warning each. An
    instance that no node produced scores for maps to an empty list and
    gets no file. The data directory is read, and the detectors (and
    numpy) load, only when some instance has no score file.
    """
    from .scoring import write_scores_csv

    store = out_dir / "models"
    scores: dict[str, list] = {}
    pending = []
    for method, window in cfg.method_instances():
        name = method_instance_name(method, window)
        score_path = out_dir / "scores" / f"{name}.csv"
        if score_path.exists():
            scores[name] = _read_cached_scores(cfg, name, score_path)
        else:
            scores[name] = []
            pending.append((method, name))
    if not pending:
        return scores
    nodes = _discover_nodes(cfg)
    from . import models as mdl

    for node_id in nodes:
        try:
            split = _load_split(cfg, node_id)
        except DataError as exc:
            log.warning("skipping %s for every method: %s", node_id, exc)
            continue
        for method, name in pending:
            path = model_path(store, node_id, name)
            if method == "EXP":
                score, args = mdl.score_exp_method, (split, cfg.exp_alpha)
            elif not path.exists():
                log.warning("%s: no model for %s; skipping", name, node_id)
                continue
            elif method == "CLU":
                score, args = mdl.score_clu_model, (mdl.load_cluster_model(path), split.test)
            else:
                score, args = mdl.score_node_model, (mdl.load_trained_model(path), split.test)
            try:
                series = score(*args)
            except DataError as exc:
                log.warning("%s: skipping %s: %s", name, node_id, exc)
                continue
            if len(series):
                scores[name].append(series)
    for _, name in pending:
        if scores[name]:
            write_scores_csv(out_dir / "scores" / f"{name}.csv", scores[name])
    return scores


def _no_scores(name: str) -> DataError:
    return DataError(f"{name}: no node produced any scores")


def cmd_score(cfg: RunConfig, out_dir: Path) -> None:
    for name, series_list in _load_or_compute_scores(cfg, out_dir).items():
        if not series_list:
            raise _no_scores(name)
        log.info(
            "%s: scored %d nodes, %d points",
            name,
            len(series_list),
            sum(len(s) for s in series_list),
        )


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> None:
    from .scoring import pool_nodes

    summary: dict[str, dict] = {}
    for name, series_list in _load_or_compute_scores(cfg, out_dir).items():
        try:
            if not series_list:
                raise _no_scores(name)
            report = pool_nodes(series_list)
        except DataError as exc:
            # the no-scores error already names the method
            log.error("%s", f"{name}: {exc}" if series_list else exc)
            summary[name] = {"error": str(exc)}
            continue
        write_json(out_dir / "reports" / f"{name}_roc.json", report.to_dict())
        report.write_points_csv(out_dir / "reports" / f"{name}_roc.csv")
        summary[name] = {
            "auc": report.auc,
            "positives": report.positives,
            "negatives": report.negatives,
            "nodes_scored": len(series_list),
        }
        log.info("%s: AUC %.4f over %d nodes", name, report.auc, len(series_list))
    write_json(out_dir / "summary.json", summary)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodewatch",
        description="Per-node HPC telemetry anomaly detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("generate", "train", "score", "evaluate"):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, type=Path, help="JSON config file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = _build_parser().parse_args(argv)
    try:
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
