"""Acceptance gate: the whole CLI end to end on a small pinned synthetic config.

Criteria, one PASS line per check (run with ``pytest tests/test_acceptance.py -s``):

1. ``generate``, ``train``, ``score`` and ``evaluate`` exit 0, and every one
   of the six methods gets an AUC in ``summary.json``.
2. A second run into a fresh directory gives a byte-identical
   ``summary.json`` and byte-identical ``scores/*.csv``.
3. A cached rerun of ``train``, ``score`` and ``evaluate`` over the first
   run's output directory trains nothing and changes no output file, and
   its ``evaluate`` reads no score file: every report is current, so
   ``scoring.read_scores_csv`` is made to fail for that command.
"""

import hashlib
import json

import pytest

from nodewatch import scoring
from nodewatch.cli import main
from nodewatch.models import METHODS
from nodewatch.util import write_json

SYNTH = dict(node_count=2, metric_count=4, timestep_count=800, anomaly_rate=0.05, seed=11)
RUN = dict(methods=list(METHODS), windows=[5], training={"max_epochs": 2}, seed=7)
COMMANDS = ("train", "score", "evaluate")


def run_pipeline(root):
    """generate + train + score + evaluate under ``root``; returns the run dir
    and the exit code of every command."""
    write_json(root / "synth.json", SYNTH)
    write_json(root / "run.json", dict(RUN, data_dir=str(root / "data")))
    out = root / "run"
    codes = {"generate": main(["generate", "--config", str(root / "synth.json"), "--out", str(root / "data")])}
    for command in COMMANDS:
        codes[command] = main([command, "--config", str(root / "run.json"), "--out", str(out)])
    return out, codes


def digests(out, pattern="**/*"):
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob(pattern))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("first"))


def test_every_command_exits_zero_and_every_method_is_scored(first_run):
    out, codes = first_run
    assert codes == {"generate": 0, "train": 0, "score": 0, "evaluate": 0}
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == sorted(["EXP", "CLU", "DENSE_semi", "DENSE_un", "RUAD_semi_W5", "RUAD_W5"])
    for name, entry in summary.items():
        assert 0.0 <= entry["auc"] <= 1.0, name
        assert entry["nodes_scored"] == SYNTH["node_count"], name
    print("PASS every command exits 0 and all six methods have an AUC")


def test_fresh_rerun_is_byte_identical(first_run, tmp_path):
    out, _ = first_run
    again, codes = run_pipeline(tmp_path)
    assert set(codes.values()) == {0}
    for pattern in ("summary.json", "scores/*.csv"):
        assert digests(again, pattern) == digests(out, pattern)
    print("PASS a second run into a fresh directory gives byte-identical summary.json and scores/*.csv")


def read_no_score_file(path):
    raise AssertionError(f"the cached evaluate read {path}")


def test_cached_rerun_changes_nothing(first_run, monkeypatch):
    out, _ = first_run
    before = digests(out)
    del before["train_log.json"]  # its job statuses say what the rerun skipped
    for command in COMMANDS:
        if command == "evaluate":
            monkeypatch.setattr(scoring, "read_scores_csv", read_no_score_file)
        assert main([command, "--config", str(out.parent / "run.json"), "--out", str(out)]) == 0
    after = digests(out)
    del after["train_log.json"]
    assert after == before
    jobs = json.loads((out / "train_log.json").read_text())["jobs"]
    assert len(jobs) == 5 * SYNTH["node_count"]
    assert {job["status"] for job in jobs} == {"skipped-exists"}
    print("PASS a cached rerun trains nothing and changes no output file")
    print("PASS the cached rerun's evaluate reads no score file")
