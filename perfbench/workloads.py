"""Workload definitions and the checks run on each workload's outputs.

A workload is a synthetic dataset (``nodewatch generate`` config) plus a run
config for ``train``/``score``/``evaluate``. Both are derived from the
benchmark seed; the program only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import oracles as orc

SPLIT_RATIO = 0.8  # RunConfig default; the coverage oracle needs it
TIMED_METRICS = ("train_s", "score_s", "evaluate_s", "rerun_s")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig fields except seed
    run: dict  # RunConfig fields except data_dir and seed
    pretrain: bool = False  # train models once during set-up
    toy: dict = field(default_factory=dict)  # SynthConfig overrides for smoke tests


TEMPORAL_MIX = {"temporal_disruption": 0.8, "level_shift": 0.1, "correlation_break": 0.1}

# Sizes keep a round to a few seconds on two cores and leave every method
# positives in the pooled test split; the reason for each workload is given
# in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="neural-train",
            synth={"node_count": 4, "metric_count": 8, "timestep_count": 1200,
                   "anomaly_rate": 0.06, "anomaly_mix": TEMPORAL_MIX},
            run={"methods": ["DENSE_un", "DENSE_semi", "RUAD", "RUAD_semi"],
                 "windows": [10], "workers": 1,
                 "training": {"max_epochs": 3, "early_stop_patience": 5,
                              "learning_rate": 0.01, "batch_size": 64}},
            toy={"node_count": 2, "timestep_count": 700},
        ),
        Workload(
            name="clu-pool",
            synth={"node_count": 4, "metric_count": 8, "timestep_count": 800,
                   "anomaly_rate": 0.08},
            run={"methods": ["CLU"], "workers": 2},
            toy={"node_count": 2, "timestep_count": 500},
        ),
        Workload(
            name="score-rerun",
            synth={"node_count": 4, "metric_count": 8, "timestep_count": 1000,
                   "anomaly_rate": 0.05},
            run={"methods": ["EXP", "DENSE_un", "RUAD"], "windows": [5, 10, 20],
                 "workers": 1, "training": {"max_epochs": 1}},
            pretrain=True,
            toy={"node_count": 2, "timestep_count": 600},
        ),
    )
}


def synth_config(workload: Workload, seed: int, toy: bool) -> dict:
    cfg = dict(workload.synth, seed=seed)
    if toy:
        cfg.update(workload.toy)
    return cfg


def run_config(workload: Workload, seed: int, data_dir: Path) -> dict:
    return dict(workload.run, data_dir=str(data_dir), seed=seed)


def inputs_key(workload: Workload, seed: int, toy: bool) -> str:
    """Short digest of everything the program is given, bar file paths."""
    inputs = {"synth": synth_config(workload, seed, toy), "run": workload.run}
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


def method_instances(run: dict) -> list[tuple[str, str, int]]:
    """(instance name, method, window) for every configured instance."""
    from nodewatch import models

    out = []
    for method in run["methods"]:
        windows = run["windows"] if method in models.WINDOWED_METHODS else [1]
        for w in windows:
            name = models.method_instance_name(method, w if method in models.WINDOWED_METHODS else None)
            out.append((name, method, w))
    return out


def trained_instances(run: dict) -> list[tuple[str, str, int]]:
    return [i for i in method_instances(run) if i[1] != "EXP"]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """Short digest of every ``.py`` file under a directory, paths included."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def scored_rows(out: Path) -> int:
    """Number of scored buckets in every score CSV under an output dir."""
    return sum(
        len(column["labels"])
        for path in sorted((out / "scores").glob("*.csv"))
        for column in orc.read_score_csv(path).values()
    )


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of summary.json and every score CSV under an output dir."""
    files = [out / "summary.json", *sorted((out / "scores").glob("*.csv"))]
    return {str(p.relative_to(out)): digest(p) for p in files}


# ---------------------------------------------------------------------------
# checks; each returns normally or raises oracles.CheckFailed


def check_outputs(check, run: dict, data: dict, out: Path) -> None:
    """Independent checks of one pass's scores, summary and models.

    ``check(label, fn, *args)`` runs one check and counts it as an operation.
    """
    from nodewatch import models

    summary = read_json(out / "summary.json")
    max_epochs = run.get("training", {}).get("max_epochs", 50)
    store = out / "models"
    for name, method, window in method_instances(run):
        scores = check(f"{name} scores readable", orc.read_score_csv, out / "scores" / f"{name}.csv")
        if scores is None:
            continue
        check(f"{name} coverage", orc.check_score_coverage, scores, data, SPLIT_RATIO, window, name)
        check(f"{name} auc", orc.check_summary_entry, summary, name, scores)
        for node_id, node in data.items():
            path = models.model_path(store, node_id, name)
            if method == "CLU":
                check(f"{name}/{node_id} clusters", lambda: orc.check_cluster_model(
                    models.load_cluster_model(path), node, SPLIT_RATIO, scores[node_id]))
            elif method != "EXP":
                check(f"{name}/{node_id} self-score", lambda: orc.check_neural_self_score(
                    models.load_trained_model(path), node, SPLIT_RATIO, name))
                check(f"{name}/{node_id} loss", orc.check_loss_history,
                      store / node_id / f"{name}_loss.csv", max_epochs)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def train_log_statuses(out: Path) -> list[str]:
    return [row["status"] for row in read_json(out / "train_log.json")["jobs"]]
