"""Benchmark of the nodewatch CLI on synthetic workloads.

    python3 perfbench/run.py --workload neural-train --seed 1 --seconds 20 --trace 0

Run from the root of a nodewatch checkout. With ``--trace 0`` every CLI
command runs as a child process timed from outside, and the end-to-end
metrics are printed. With ``--trace 1`` the same commands run in-process
through ``nodewatch.cli.main``, once untraced and once with every layer
boundary wrapped by :mod:`tracer`, and the per-layer metrics plus the
tracing overhead are printed. Either way the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

One round is: train into a fresh output directory; score and evaluate a
fresh copy of it; then train, score and evaluate again over that copy, where
every artifact is cached. On score-rerun, whose models are pre-trained during
set-up, the first train finds every model in place. Rounds repeat while the
next one is expected to end within ``--seconds``. Set-up (``nodewatch
generate`` and, for score-rerun, one-epoch pre-training) runs three times
before the rounds.

The host's speed drifts by tens of percent over minutes, so a fixed
calibration job (:data:`CALIBRATION`) runs before each set-up and before
each group of timed commands in a round. Each timing sample is
scaled to the host speed at which the calibration job takes
``CALIBRATION_REFERENCE_S``, using the mean of the calibration runs just
before and just after it, and each metric is the median of its scaled
samples. The unscaled medians are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# A fixed job with the make-up of a short CLI command: interpreter and numpy
# start-up, then a little pure-Python and a little BLAS work. Timings are
# reported at the host speed at which it takes CALIBRATION_REFERENCE_S.
CALIBRATION = """
import numpy as np
a = np.linspace(0.0, 1.0, 40000).reshape(200, 200)
for _ in range(20):
    a = np.tanh(a @ a / 200.0)
x = 0
for i in range(200000):
    x += i % 7
"""
CALIBRATION_REFERENCE_S = 0.3

sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# running CLI commands


class ChildRunner:
    """Runs ``python -m nodewatch.cli`` as a child process, timed from outside.

    The peak RSS comes from ``wait4``: it is the larger of the child's own
    and that of any descendant it waited for, so pool workers count.
    """

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.peak_rss_kb = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def __call__(self, command: str, config: Path, out: Path) -> tuple[float, int]:
        argv = [sys.executable, "-m", "nodewatch.cli", command, "--config", str(config), "--out", str(out)]
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return elapsed, proc.returncode

    def calibrate(self) -> float:
        """Wall time of the fixed :data:`CALIBRATION` job in a child process."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CALIBRATION], check=True, env=self.env, cwd=ROOT)
        return time.perf_counter() - start


class InProcessRunner:
    """Calls ``nodewatch.cli.main`` in this process; sums the time spent."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __call__(self, command: str, config: Path, out: Path) -> tuple[float, int]:
        from nodewatch import cli

        start = time.perf_counter()
        code = cli.main([command, "--config", str(config), "--out", str(out)])
        seconds = time.perf_counter() - start
        self.elapsed += seconds
        return seconds, code

    def calibrate(self) -> None:
        return None


# ---------------------------------------------------------------------------
# operations and checks


class Ledger:
    """Counts operations attempted and failed, and remembers check failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, label: str, fn, *args):
        """Run one output check as an operation; return its result or None."""
        try:
            result = fn(*args)
        except Exception:  # a check must not stop the run; record and go on
            self.check_failures.append(label)
            self.op(False, f"check {label}\n{traceback.format_exc()}")
            return None
        self.op(True, label)
        return result

    def command(self, runner, command: str, config: Path, out: Path) -> float:
        seconds, code = runner(command, config, out)
        self.op(code == 0, f"nodewatch {command} --out {out} exited {code}")
        return seconds


# ---------------------------------------------------------------------------
# one run


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, toy: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.work = work
        self.ledger = Ledger()
        self.synth_path = work / "synth.json"
        self.synth_path.write_text(json.dumps(wl.synth_config(workload, seed, toy)))
        self.data: dict[str, orc.NodeData] = {}
        self.pretrained: Path | None = None
        self.config: Path | None = None  # run config, written by setup()
        self.summary_sha256 = ""  # of the first round, set by check_digest()
        self.calibrations: list[float] = []  # calibration times, in run order
        self.first_round: dict[str, str] | None = None  # output digests of round 1

    def calibrate(self, runner) -> None:
        seconds = runner.calibrate()
        if seconds is not None:
            self.calibrations.append(seconds)

    def timed(self, seconds: float) -> tuple[float, int]:
        """A timing sample and the index of the calibration run just before it.

        The calibration after it is the next one in the list.
        """
        return seconds, len(self.calibrations) - 1

    def config_for(self, data_dir: Path) -> Path:
        path = data_dir.parent / "run.json"
        path.write_text(json.dumps(wl.run_config(self.workload, self.seed, data_dir)))
        return path

    # -- set-up ------------------------------------------------------------

    def setup_once(self, runner, index: int) -> float:
        """Generate the dataset (and pre-train); return the elapsed seconds."""
        base = self.work / f"setup{index}"
        data_dir = base / "data"
        seconds = self.ledger.command(runner, "generate", self.synth_path, data_dir)
        if self.workload.pretrain:
            config = self.config_for(data_dir)
            seconds += self.ledger.command(runner, "train", config, base / "pretrained")
            statuses = self.ledger.check("pre-training log", wl.train_log_statuses, base / "pretrained")
            for status in statuses or []:
                self.ledger.op(status == "trained", f"pre-training job {status}")
        return seconds

    def setup(self, runner, repeats: int = SETUP_REPEATS) -> list[tuple[float, int]]:
        times = []
        for index in range(repeats):
            self.calibrate(runner)
            times.append(self.timed(self.setup_once(runner, index)))
        first = self.work / "setup0"
        self.ledger.check("set-up is reproducible", self._same_setup, repeats)
        manifest = wl.read_json(first / "data" / "manifest.json")
        for node_id in sorted(manifest["nodes"]):
            self.data[node_id] = orc.read_node_csv(first / "data" / f"{node_id}.csv")
        self.ledger.check("labels match manifest", orc.check_labels_match_manifest, self.data, manifest)
        if self.workload.pretrain:
            self.pretrained = first / "pretrained" / "models"
        self.config = self.config_for(first / "data")
        return times

    def _same_setup(self, repeats: int) -> None:
        def tree(root: Path) -> dict:
            files = sorted(p for p in root.rglob("*") if p.is_file())
            return {str(p.relative_to(root)): wl.digest(p) for p in files}

        for part in ("data", "pretrained/models"):
            first = tree(self.work / "setup0" / part)
            for i in range(1, repeats):
                orc.require(tree(self.work / f"setup{i}" / part) == first, f"set-up {i} {part} differs")

    # -- rounds ------------------------------------------------------------

    def round(self, runner, out: Path) -> dict[str, list]:
        """One round of timed commands; returns each metric's samples.

        ``template`` is the output dir before any scoring: the trained dir,
        or on pre-trained workloads just the models copied in. ``train``
        runs into a fresh ``template``, or on pre-trained workloads (where it
        finds every model in place) into a fresh copy of it. ``score`` and
        ``evaluate`` follow on that copy, then one fully cached ``train`` +
        ``score`` + ``evaluate`` over the same dir. summary.json and the
        score CSVs must be byte-identical after both, and in every round.
        Both ``evaluate`` runs do the same work (the scores are on disk by
        then), so each is an evaluate_s sample. A calibration job runs
        before each group of timed commands (see :meth:`ChildRunner.calibrate`).
        """
        ledger = self.ledger
        template = out.with_name(out.name + "-template")
        for path in (out, template):
            if path.exists():
                shutil.rmtree(path)
        template.mkdir(parents=True)
        config = self.config
        run = json.loads(config.read_text())
        expected_jobs = len(self.data) * len(wl.trained_instances(run))
        pretrained = self.pretrained is not None

        samples: dict[str, list] = {k: [] for k in wl.TIMED_METRICS}
        if pretrained:
            shutil.copytree(self.pretrained, template / "models")
        else:
            self.calibrate(runner)
            samples["train_s"].append(self.timed(ledger.command(runner, "train", config, template)))
            self._count_jobs(template, "trained", expected_jobs)
        shutil.copytree(template, out)
        self.calibrate(runner)
        if pretrained:
            samples["train_s"].append(self.timed(ledger.command(runner, "train", config, out)))
            self._count_jobs(out, "skipped-exists", expected_jobs)
        samples["score_s"].append(self.timed(ledger.command(runner, "score", config, out)))
        self._count_scored(out, run)
        samples["evaluate_s"].append(self.timed(ledger.command(runner, "evaluate", config, out)))
        first = ledger.check("first-pass digests", wl.output_digests, out) or {}
        if self.first_round is None:
            self.first_round = first
        self._check_same(out, self.first_round, "a repeated round")

        self.calibrate(runner)
        rerun = ledger.command(runner, "train", config, out)
        self._count_jobs(out, "skipped-exists", expected_jobs)
        rerun += ledger.command(runner, "score", config, out)
        self._count_scored(out, run)
        evaluate = ledger.command(runner, "evaluate", config, out)
        samples["evaluate_s"].append(self.timed(evaluate))
        samples["rerun_s"].append(self.timed(rerun + evaluate))
        self._check_same(out, first, "a cached rerun")

        wl.check_outputs(ledger.check, run, self.data, out)
        samples["summary_sha256"] = [first.get("summary.json", "")]
        return samples

    def _check_same(self, out: Path, first: dict[str, str], what: str) -> None:
        self.ledger.check(f"{what} is byte-identical", lambda: orc.require(
            wl.output_digests(out) == first, f"{what} changed summary.json or a score CSV"))

    def _count_jobs(self, out: Path, expected: str, expected_jobs: int) -> None:
        statuses = self.ledger.check("train_log.json readable", wl.train_log_statuses, out) or []
        for status in statuses:
            self.ledger.op(status == expected, f"train job {status}, expected {expected}")
        self.ledger.check("train_log.json lists every job", lambda: orc.require(
            len(statuses) == expected_jobs, f"{len(statuses)} jobs logged, expected {expected_jobs}"))

    def _count_scored(self, out: Path, run: dict) -> None:
        for name, _, _ in wl.method_instances(run):
            self.ledger.op((out / "scores" / f"{name}.csv").is_file(), f"scored {name}")

    def check_digest(self, digests: list[str]) -> None:
        """summary.json is the same in every round and every run at one seed.

        The first digest seen is kept in ``.bench_work/summary_digests.json``
        under a key made of the workload, the seed, the inputs and a digest
        of the program's sources, so a changed program starts afresh.
        """
        store = WORK / "summary_digests.json"
        key = (f"{self.workload.name}|seed={self.seed}"
               f"|inputs={wl.inputs_key(self.workload, self.seed, self.toy)}"
               f"|program={wl.tree_digest(SRC / 'nodewatch')}")
        known = json.loads(store.read_text()) if store.exists() else {}
        reference = known.get(key, digests[0])
        self.summary_sha256 = digests[0]
        stable = all(d == reference for d in digests)
        self.ledger.check("summary.json digest stable", lambda: orc.require(
            stable, f"summary.json sha256 differs across rounds or runs: {sorted(set(digests))}, "
            f"earlier runs {reference}"))
        if stable and key not in known:
            known[key] = reference
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, store)


def scaled_median(samples: list[tuple[float, int]], calibrations: list[float]) -> float:
    """Median of wall times scaled to the reference host speed.

    Each sample is ``(seconds, index)``: it ran after calibration run
    ``index`` and before run ``index + 1``, and is scaled by
    ``CALIBRATION_REFERENCE_S`` over the mean of those two.
    """
    return statistics.median(
        seconds * CALIBRATION_REFERENCE_S * 2.0 / (calibrations[index] + calibrations[index + 1])
        for seconds, index in samples
    )


def run_untraced(bench: Bench, seconds: float) -> dict:
    runner = ChildRunner(bench.work / "cli.log")
    setup_times = bench.setup(runner)
    samples: dict[str, list] = {}
    rounds = 0
    start = time.perf_counter()
    # whole rounds only, and none that would end past --seconds
    while not rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for key, values in bench.round(runner, bench.work / "round").items():
            samples.setdefault(key, []).extend(values)
        rounds += 1
    bench.calibrate(runner)  # so that every sample has a calibration after it
    bench.check_digest(samples.pop("summary_sha256"))
    samples["setup_s"] = setup_times
    calibrations = bench.calibrations
    print("samples (wall s, calibration index)", json.dumps(samples), file=sys.stderr)
    print("calibrations", json.dumps(calibrations), file=sys.stderr)
    metrics, notes = {}, []
    for key in ("setup_s", *wl.TIMED_METRICS):
        metrics[key] = (scaled_median(samples[key], calibrations), "s")
        notes.append(f"{key}: {len(samples[key])} samples, median wall time "
                     f"{statistics.median(t for t, _ in samples[key]):.4f} s")
    notes.append(f"calibration: {len(calibrations)} runs, median {statistics.median(calibrations):.4f} s")
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024.0, "MB")
    return {"metrics": metrics, "rounds": rounds, "notes": notes}


def run_traced(bench: Bench, seconds: float) -> dict:
    import tracer as tr

    runner = InProcessRunner()
    tracer = tr.Tracer(bench.work / "spool")
    tracer.install()
    try:
        bench.setup(runner)
    finally:
        tracer.uninstall()
    setup_spans = tracer.collect()

    per_round: list[dict[str, float]] = []
    digests = []
    start = time.perf_counter()
    # The pass that runs second in a round tends to be faster, so the order
    # alternates and the loop ends on an even round count.
    while not per_round or len(per_round) % 2 or time.perf_counter() - start < seconds:
        order = ("plain", "traced") if len(per_round) % 2 == 0 else ("traced", "plain")
        walls = {}
        for kind in order:
            if kind == "traced":
                tracer.install()
            try:
                before = runner.elapsed
                samples = bench.round(runner, bench.work / f"round-{kind}")
                walls[kind] = runner.elapsed - before  # CLI time only, not checks
            finally:
                tracer.uninstall()
            digests.extend(samples["summary_sha256"])
        metrics = tr.layer_metrics(tracer.collect())
        scored_per_round = wl.scored_rows(bench.work / "round-traced")
        bench.ledger.check("traced spans are the CLI's own", lambda: orc.require(
            metrics["scoring.scored_points"] == scored_per_round,
            f"{metrics['scoring.scored_points']} points in scoring spans, "
            f"{scored_per_round} expected from the score files"))
        metrics["trace.untraced_s"] = walls["plain"]
        metrics["trace.traced_s"] = walls["traced"]
        per_round.append(metrics)
    bench.check_digest(digests)

    setup_metrics = tr.layer_metrics(setup_spans)
    values = {k: statistics.median([m[k] for m in per_round]) for k in per_round[0]}
    plain = sum(m["trace.untraced_s"] for m in per_round)
    values["trace.overhead_pct"] = 100.0 * (sum(m["trace.traced_s"] for m in per_round) / plain - 1.0)
    for key in ("telemetry.to_csv_s", "synthgen.generate_node_s", "synthgen.self_s"):
        values[key] = setup_metrics[key] / SETUP_REPEATS
    # names and units of the per-layer metrics are those BENCHMARK.json lists
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    notes = [f"median of {len(per_round)} traced rounds; set-up layers: mean of {SETUP_REPEATS} set-ups"]
    return {"metrics": metrics, "rounds": len(per_round), "notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "nodewatch" / "cli.py").is_file():
        print(f"error: no nodewatch sources at {SRC}; run from a nodewatch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(wl.WORKLOADS[args.workload], args.seed, args.toy, work)
        result = (run_traced if args.trace else run_untraced)(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = bench.ledger
    print(f"{args.workload} seed={args.seed}: {result['rounds']} rounds, "
          f"{ledger.attempted} operations, {ledger.failed} failed")
    for note in result["notes"]:
        print(f"  {note}")
    print(f"  summary.json sha256 {bench.summary_sha256}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for label in ledger.check_failures:
        print(f"  check failed: {label}")
    print(json.dumps({
        "correct": not ledger.check_failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
