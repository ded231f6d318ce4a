import base64
import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nodewatch
from nodewatch import cli, pipeline, scoring
from nodewatch.cli import RunConfig, main
from nodewatch.errors import ConfigError
from nodewatch.models import load_trained_model
from nodewatch.scoring import ScoreSeries, write_scores_csv
from nodewatch.util import read_config, write_json


def write_config(path, **kwargs):
    write_json(path, kwargs)
    return path


def tiny_synth_config(tmp_path, **overrides):
    cfg = dict(
        node_count=2,
        metric_count=4,
        timestep_count=400,
        anomaly_rate=0.02,
        seed=11,
    )
    cfg.update(overrides)
    return write_config(tmp_path / "synth.json", **cfg)


def tiny_run_config(tmp_path, data_dir, **overrides):
    cfg = dict(
        data_dir=str(data_dir),
        methods=["DENSE_un"],
        windows=[5],
        training={"max_epochs": 2},
        seed=5,
    )
    cfg.update(overrides)
    return write_config(tmp_path / "run.json", **cfg)


class TestGenerateCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = tiny_synth_config(tmp_path)
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "node_000.csv",
            "node_001.csv",
        ]
        assert (out / "manifest.json").exists()

    def test_rerun_is_identical(self, tmp_path):
        cfg = tiny_synth_config(tmp_path)
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("node_000.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_rate_exits_with_config_error(self, tmp_path):
        cfg = tiny_synth_config(tmp_path, anomaly_rate=2.0)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_unknown_field_exits_with_config_error(self, tmp_path):
        cfg = tiny_synth_config(tmp_path, mystery_knob=3)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("node_count", 2.5),
            ("timestep_count", 50.0),
            ("node_count", True),
            ("seed", "abc"),
            ("anomaly_mix", ["level_shift"]),
            ("anomaly_mix", {"level_shift": math.nan, "temporal_disruption": 1.0}),
            # no longer a setting: refused as an unknown key, whatever its value
            ("noise_std", "0.1"),
            ("noise_std", math.nan),
        ],
        ids=[
            "node-count-2.5", "timestep-count-50.0", "node-count-true", "seed-abc",
            "mix-list", "mix-weight-nan", "noise-std-string", "noise-std-nan",
        ],
    )
    def test_mistyped_value_exits_one_with_one_line(self, tmp_path, key, value):
        cfg = tiny_synth_config(tmp_path, **{key: value})
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and key in lines[0] and str(cfg) in lines[0]
        assert not (tmp_path / "x").exists()

    def test_too_many_timesteps_to_allocate_exits_one_with_one_line(self, tmp_path):
        # 10**15 buckets: numpy refuses the first array at once, allocating nothing
        cfg = write_config(
            tmp_path / "synth.json", node_count=1, metric_count=2, timestep_count=10**15
        )
        proc = run_cli("generate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and "timestep_count" in lines[0]


@pytest.fixture(scope="module")
def generated_data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    cfg = tiny_synth_config(tmp)
    out = tmp / "nodes"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestTrainCommand:
    def test_exp_needs_no_model_files(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "models").exists()
        log = json.loads((out / "train_log.json").read_text())
        assert log["config"]["methods"] == ["EXP"]
        assert log["jobs"] == []

    def test_ruad_trains_one_model_per_node(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["RUAD"], windows=[5])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        files = sorted(p.as_posix() for p in (out / "models").glob("*/RUAD_W5.json"))
        assert len(files) == 2
        assert (out / "models" / "node_000" / "RUAD_W5_loss.csv").exists()

    def test_rerun_skips_existing_models(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["CLU"])
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        first = {
            p: p.stat().st_mtime_ns for p in (out / "models").glob("*/CLU.json")
        }
        assert len(first) == 2
        main(["train", "--config", str(cfg), "--out", str(out)])
        log = json.loads((out / "train_log.json").read_text())
        statuses = {job["status"] for job in log["jobs"]}
        assert statuses == {"skipped-exists"}
        for p, mtime in first.items():
            assert p.stat().st_mtime_ns == mtime

    def test_missing_data_dir_is_a_data_error(self, tmp_path, caplog):
        (tmp_path / "a_file").write_text("not a directory")
        for name, problem in (("nowhere", "does not exist"), ("a_file", "is not a directory")):
            cfg = tiny_run_config(tmp_path, tmp_path / name)
            caplog.clear()
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
                ("ERROR", f"data error: data directory {tmp_path / name} {problem}"),
            ]

    def test_pool_is_no_larger_than_the_job_count(self, tmp_path, generated_data, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records its size and runs the jobs here: no process starts."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = tiny_run_config(tmp_path, generated_data, methods=["CLU"], workers=500)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert sizes == [2]  # one job per node
        jobs = json.loads((out / "train_log.json").read_text())["jobs"]
        assert [j["status"] for j in jobs] == ["trained", "trained"]

    def test_feature_too_wide_for_a_float_skips_the_node_by_name(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rows = [f"{i * 900},0,{(-1) ** i * 1e308!r},{float(i)!r}\n" for i in range(40)]
        (data / "node_000.csv").write_text("bucket_start,label,wide,calm\n" + "".join(rows))
        cfg = tiny_run_config(tmp_path, data, methods=["EXP", "CLU", "DENSE_un"])
        out = tmp_path / "run"
        train = run_cli("train", "--config", str(cfg), "--out", str(out))
        assert train.returncode == 0, train.stderr
        jobs = json.loads((out / "train_log.json").read_text())["jobs"]
        assert [(j["model"], j["status"]) for j in jobs] == [
            ("CLU", "skipped-data"), ("DENSE_un", "skipped-data"),
        ]
        assert all("feature wide" in j["detail"] for j in jobs)
        evaluate = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert evaluate.returncode == 0, evaluate.stderr
        for proc in (train, evaluate):
            assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


class TestDivergence:
    """A network whose values overflow prints no numpy warning (tier-1 turns
    one into an error); a training loss that is not finite exits 3."""

    def test_overflowing_network_trains_and_evaluates(self, tmp_path, generated_data):
        # steps of ~1e10 leave the parameters finite in float32, but some hidden
        # values of the float32 passes overflow, while the loss stays finite
        training = {"max_epochs": 2, "learning_rate": 1e10}
        cfg = tiny_run_config(
            tmp_path, generated_data, methods=["DENSE_un", "RUAD"], training=training
        )
        for command in ("train", "evaluate"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0

    def test_parameters_beyond_float32_exit_three_with_one_line(
        self, tmp_path, generated_data, caplog
    ):
        # steps of ~1e100 are finite in the float64 parameters, but inf in the
        # float32 copy that each batch runs, so the loss is not finite
        training = {"max_epochs": 2, "learning_rate": 1e100}
        cfg = tiny_run_config(
            tmp_path, generated_data, methods=["DENSE_un", "RUAD"], training=training
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert [r.getMessage() for r in errors] == [
            "training failed: 4 of 4 model instances failed to train, "
            "first node_000/DENSE_un; see train_log.json"
        ]
        assert "Traceback" not in caplog.text and errors[0].exc_info is None

    def test_non_finite_loss_exits_three_with_one_line(self, tmp_path, generated_data, caplog):
        training = {"max_epochs": 2, "learning_rate": 1e300}
        cfg = tiny_run_config(tmp_path, generated_data, training=training)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert [r.getMessage() for r in errors] == [
            "training failed: 2 of 2 model instances failed to train, "
            "first node_000/DENSE_un; see train_log.json"
        ]
        assert "Traceback" not in caplog.text and errors[0].exc_info is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_diverging_method_leaves_the_others_trained(
        self, tmp_path, generated_data, caplog, workers
    ):
        training = {"max_epochs": 2, "learning_rate": 1e300}
        cfg = tiny_run_config(
            tmp_path, generated_data, methods=["CLU", "DENSE_un"], training=training,
            workers=workers,
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert sorted(p.relative_to(out).as_posix() for p in out.glob("models/*/*")) == [
            "models/node_000/CLU.json", "models/node_001/CLU.json",
        ]
        jobs = json.loads((out / "train_log.json").read_text())["jobs"]
        assert [(j["node"], j["model"], j["status"], j["detail"]) for j in jobs] == [
            ("node_000", "CLU", "trained", ""),
            ("node_000", "DENSE_un", "failed-training", "training diverged: loss became nan"),
            ("node_001", "CLU", "trained", ""),
            ("node_001", "DENSE_un", "failed-training", "training diverged: loss became nan"),
        ]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [
            "training failed: 2 of 4 model instances failed to train, "
            "first node_000/DENSE_un; see train_log.json"
        ]
        assert "Traceback" not in caplog.text


def decode_f8(entry):
    """A stored ``{"shape", "f8"}`` array, decoded by hand."""
    return np.frombuffer(base64.b64decode(entry["f8"]), dtype="<f8").reshape(entry["shape"])


def encode_f8(array):
    data = np.asarray(array, dtype="<f8").tobytes()
    return {"shape": list(np.shape(array)), "f8": base64.b64encode(data).decode("ascii")}


def v2_layout(model, network):
    """Rewrite a store the way format 2 held it: ``network`` as one entry per
    layer, holding the layer's type, its settings and its arrays."""
    kinds = {"DenseLayer": "dense", "LstmLayer": "lstm"}
    layers = [
        {"type": kinds[type(layer).__name__],
         **{key: encode_f8(value) if isinstance(value, np.ndarray) else value
            for key, value in vars(layer).items()}}
        for layer in network.layers
    ]
    return {**model, "format": 2, "network": {"layers": layers}}


def v1_layout(entry):
    """Rewrite a format-2 store the way format 1 held it: no ``format``
    field, and every array as nested JSON lists."""
    if isinstance(entry, dict):
        if "f8" in entry:
            return decode_f8(entry).tolist()
        return {key: v1_layout(value) for key, value in entry.items() if key != "format"}
    return [v1_layout(item) for item in entry] if isinstance(entry, list) else entry


def per_gate_layout(model):
    """Rewrite each LSTM layer of a format-1 store the way still earlier
    versions stored it: twelve per-gate arrays instead of gate-stacked w/u/b."""
    for layer in model["network"]["layers"]:
        if layer["type"] == "lstm":
            for prefix in ("w", "u", "b"):
                blocks = np.split(np.array(layer.pop(prefix)), 4)
                for gate, block in zip(("input", "forget", "output", "candidate"), blocks):
                    layer[f"{prefix}_{gate}"] = block.tolist()
    return model


def run_cli(*command):
    """Run ``python -m nodewatch.cli`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "nodewatch.cli", *command],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(nodewatch.__file__).parents[1])},
    )


class TestThreadPolicy:
    @pytest.mark.parametrize("exported", [None, "3"], ids=["unset", "exported"])
    def test_import_sets_one_blas_thread_unless_exported(self, exported):
        env = {"PYTHONPATH": str(Path(nodewatch.__file__).parents[1])}
        if exported is not None:
            env["OPENBLAS_NUM_THREADS"] = exported
        proc = subprocess.run(
            [sys.executable, "-c", "import os, nodewatch; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (exported or "1")


def python_in_child(code):
    """Run ``python -c code`` with nodewatch importable; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(nodewatch.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] in ('nodewatch', 'numpy'))]))"


class TestImportCost:
    def test_cli_import_loads_only_the_config_modules(self):
        (loaded,) = python_in_child(f"import json, sys\nimport nodewatch.cli\n{LOADED}")
        assert loaded == [
            "nodewatch", "nodewatch.cli", "nodewatch.errors", "nodewatch.methods", "nodewatch.util",
        ]

    def test_cached_train_loads_no_numpy(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "DENSE_un", "RUAD"])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        (loaded,) = python_in_child(
            "import json, sys\nfrom nodewatch import cli\n"
            f"assert cli.main(['train', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            f"{LOADED}"
        )
        assert not any(m.split(".")[0] == "numpy" for m in loaded)
        jobs = json.loads((out / "train_log.json").read_text())["jobs"]
        assert len(jobs) == 6 and {j["status"] for j in jobs} == {"skipped-exists"}

    def test_scoring_import_loads_no_numpy(self):
        (loaded,) = python_in_child(f"import json, sys\nimport nodewatch.scoring\n{LOADED}")
        assert not any(m.split(".")[0] == "numpy" for m in loaded)

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_fully_cached_command_loads_no_numpy(self, tmp_path, generated_data, command):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "DENSE_un", "RUAD"])
        out = tmp_path / "run"
        for step in ("train", "score"):
            assert main([step, "--config", str(cfg), "--out", str(out)]) == 0
        (loaded,) = python_in_child(
            "import json, sys\nfrom nodewatch import cli\n"
            f"assert cli.main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            f"{LOADED}"
        )
        assert not any(m.split(".")[0] == "numpy" for m in loaded)
        # score reads no cached score file; evaluate reads each to pool it
        assert ("nodewatch.scoring" in loaded) == (command == "evaluate")

    def test_evaluate_with_every_report_current_loads_no_scoring(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "DENSE_un", "RUAD"])
        out = tmp_path / "run"
        for step in ("train", "score", "evaluate"):
            assert main([step, "--config", str(cfg), "--out", str(out)]) == 0
        (loaded,) = python_in_child(
            "import json, sys\nfrom nodewatch import cli\n"
            f"assert cli.main(['evaluate', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            f"{LOADED}"
        )
        assert not any(m.split(".")[0] == "numpy" for m in loaded)
        assert "nodewatch.scoring" not in loaded

    def test_evaluate_computes_a_missing_score_file_as_score_would(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "RUAD"])
        stepwise, direct = tmp_path / "stepwise", tmp_path / "direct"
        assert main(["train", "--config", str(cfg), "--out", str(stepwise)]) == 0
        shutil.copytree(stepwise, direct)
        for command in ("score", "evaluate"):
            assert main([command, "--config", str(cfg), "--out", str(stepwise)]) == 0
        assert main(["score", "--config", str(cfg), "--out", str(direct)]) == 0
        (direct / "scores" / "CLU.csv").unlink()
        assert main(["evaluate", "--config", str(cfg), "--out", str(direct)]) == 0
        files = sorted(
            p.relative_to(stepwise) for p in stepwise.rglob("*") if p.is_file()
        )
        assert files == sorted(p.relative_to(direct) for p in direct.rglob("*") if p.is_file())
        assert Path("scores/CLU.csv") in files and Path("reports/CLU_roc.json") in files
        for path in files:
            assert (stepwise / path).read_bytes() == (direct / path).read_bytes(), path

    def test_package_names_still_import(self):
        from nodewatch import METHODS, NodeDataset, TrainingConfig

        assert NodeDataset.__module__ == "nodewatch.telemetry"
        assert TrainingConfig().batch_size == 32 and "RUAD" in METHODS
        with pytest.raises(AttributeError):
            nodewatch.NoSuchName


class TestScoreCommand:
    @pytest.mark.parametrize(
        "damage",
        [
            "per-gate layout", "truncated", "unknown spec key", "old layout", "v1 list layout",
            "v2 layer layout", "short payload", "not base64", "NaN weight", "shape off spec",
            "fractional window",
        ],
    )
    def test_bad_model_file_exits_two_with_one_line(self, tmp_path, generated_data, damage):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["RUAD"], windows=[5])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "models" / "node_000" / "RUAD_W5.json"
        text = path.read_text()
        model = json.loads(text)
        network = model["network"]
        if damage == "truncated":
            path.write_text(text[: len(text) // 2])
        elif damage == "unknown spec key":
            model["model_spec"]["extra"] = 1
            path.write_text(json.dumps(model))
        elif damage == "old layout":
            # the keys stores carried before the sizes and the time-consistency
            # flag became constants
            model["model_spec"].update(encoder_dim=16, latent_dim=8, decoder_dim=16)
            model["regime"]["time_consistency"] = True
            path.write_text(json.dumps(model))
        elif damage == "fractional window":
            model["model_spec"]["window"] = 5.5
            path.write_text(json.dumps(model))
        elif damage in ("per-gate layout", "v1 list layout", "v2 layer layout"):
            model = v2_layout(model, load_trained_model(path).network)
            if damage != "v2 layer layout":
                model = v1_layout(model)
            if damage == "per-gate layout":
                model = per_gate_layout(model)
            path.write_text(json.dumps(model))
        else:
            if damage == "short payload":
                network["f8"] = base64.b64encode(base64.b64decode(network["f8"])[:-8]).decode()
            elif damage == "not base64":
                network["f8"] = "not*base64"
            elif damage == "NaN weight":
                values = decode_f8(network).copy()
                values[3] = np.nan
                network.update(encode_f8(values))
            else:  # the last parameter dropped, as a hand edit might
                network.update(encode_f8(decode_f8(network)[:-1]))
            path.write_text(json.dumps(model))
        for command in ("score", "evaluate"):
            proc = run_cli(command, "--config", str(cfg), "--out", str(out))
            assert proc.returncode == 2
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and "Traceback" not in proc.stderr
            assert lines[0].startswith("ERROR") and str(path) in lines[0]
            if damage in ("per-gate layout", "v1 list layout", "v2 layer layout"):
                assert "older nodewatch" in lines[0] and "retrained" in lines[0]
            expected = {
                "short payload": "bytes", "not base64": "base64", "NaN weight": "not finite",
                "shape off spec": "network is (", "fractional window": "window must be an integer",
            }.get(damage, "")
            assert expected in lines[0]
            if damage == "unknown spec key":
                assert "extra" in lines[0]
            if damage == "old layout":
                assert "encoder_dim" in lines[0] and "retrained" in lines[0]
        assert not (out / "summary.json").exists()

    def test_fully_cached_score_reads_no_score_file(self, tmp_path, generated_data, monkeypatch):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU"])
        out = tmp_path / "run"
        for command in ("train", "score"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

        def read_scores_csv(path):
            raise AssertionError(f"score read {path}")

        monkeypatch.setattr(scoring, "read_scores_csv", read_scores_csv)
        assert main(["score", "--config", str(cfg), "--out", str(out)]) == 0


class TestEvaluateCommand:
    def test_perfect_oracle_scores_give_auc_one(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        out = tmp_path / "run"
        out.mkdir()
        series = ScoreSeries(
            node_id="node_000",
            bucket_starts=np.arange(10) * 900,
            probabilities=np.array([1.0] * 5 + [0.0] * 5),
            labels=np.array([1] * 5 + [0] * 5),
        )
        write_scores_csv(out / "scores" / "EXP.csv", [series])
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["EXP"]["auc"] == 1.0
        assert summary["EXP"]["positives"] == 5

    def test_dummy_scores_sit_at_chance(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        out = tmp_path / "run"
        out.mkdir()
        rng = np.random.default_rng(0)
        series = ScoreSeries(
            node_id="node_000",
            bucket_starts=np.arange(5000) * 900,
            probabilities=np.random.default_rng(1).random(5000),
            labels=rng.integers(0, 2, size=5000),
        )
        write_scores_csv(out / "scores" / "EXP.csv", [series])
        main(["evaluate", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["EXP"]["auc"] - 0.5) < 0.05

    def test_summary_lists_each_requested_method_once(self, tmp_path, generated_data):
        cfg = tiny_run_config(
            tmp_path,
            generated_data,
            methods=["EXP", "CLU", "DENSE_un", "RUAD"],
            windows=[5, 10],
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["CLU", "DENSE_un", "EXP", "RUAD_W10", "RUAD_W5"]
        for name in ("EXP", "CLU", "DENSE_un"):
            report = json.loads((out / "reports" / f"{name}_roc.json").read_text())
            assert (out / "reports" / f"{name}_roc.csv").exists()
            nodes = report["nodes"]
            assert sorted(nodes) == ["node_000", "node_001"]
            for key in ("positives", "negatives"):
                assert sum(node[key] for node in nodes.values()) == summary[name][key]
            for node in nodes.values():
                assert node["scored"] == node["positives"] + node["negatives"]
                assert (node["auc"] is None) == (0 in (node["positives"], node["negatives"]))

    def test_single_class_method_error_does_not_poison_others(
        self, tmp_path, generated_data
    ):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU"])
        out = tmp_path / "run"
        out.mkdir()
        # an EXP score file with only negatives: ROC undefined for EXP only
        broken = ScoreSeries(
            node_id="node_000",
            bucket_starts=np.arange(4) * 900,
            probabilities=np.array([0.1, 0.2, 0.3, 0.4]),
            labels=np.zeros(4, dtype=int),
        )
        write_scores_csv(out / "scores" / "EXP.csv", [broken])
        main(["train", "--config", str(cfg), "--out", str(out)])
        # RUAD was never trained, so no node scores it
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "RUAD"])
        proc = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["EXP"] == {"error": "ROC undefined: no positive (label 1) samples"}
        assert summary["RUAD_W5"] == {"error": "RUAD_W5: no node produced any scores"}
        assert "auc" in summary["CLU"]
        assert [line for line in proc.stderr.splitlines() if line.startswith("ERROR")] == [
            "ERROR nodewatch: EXP: ROC undefined: no positive (label 1) samples",
            "ERROR nodewatch: RUAD_W5: no node produced any scores",
        ]

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "unparsable cell", "nan cell", "label 7", "not UTF-8", "field too long"],
    )
    def test_damaged_score_file_exits_two_with_one_line(
        self, tmp_path, generated_data, damage
    ):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        out = tmp_path / "run"
        assert main(["score", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "scores" / "EXP.csv"
        text = path.read_text()
        if damage == "truncated":
            assert text[299] != "\n"  # the cut ends inside a row
            path.write_text(text[:300])
        elif damage == "unparsable cell":
            path.write_text(text.replace(",0.0,", ",zero,", 1))
        elif damage == "nan cell":
            # parses as a float, and NaN compares false against [0, 1]
            path.write_text(text.replace(",0.0,", ",nan,", 1))
        elif damage == "not UTF-8":
            data = bytearray(path.read_bytes())
            data[text.index("\n") + 3] = 0xFF  # inside the first row
            path.write_bytes(data)
        elif damage == "field too long":  # past csv's field size limit
            head, row, rest = text.split("\n", 2)
            path.write_text("\n".join([head, "x" * 200_000 + row[row.index(","):], rest]))
        else:
            head, row, rest = text.split("\n", 2)
            path.write_text("\n".join([head, row.rsplit(",", 1)[0] + ",7", rest]))
        damaged = path.read_bytes()
        # score reads no cached file, so it leaves the damaged one as it is
        assert run_cli("score", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert path.read_bytes() == damaged
        proc = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and str(path) in lines[0]
        if damage == "label 7":
            assert "line 2" in lines[0] and "label 7" in lines[0]
        assert not (out / "summary.json").exists()

    def test_roc_csv_cells_are_plain_numbers(self, tmp_path, generated_data):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU"])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("EXP", "CLU"):
            with open(out / "reports" / f"{name}_roc.csv", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == ["threshold", "fpr", "tpr"] and len(rows) > 2
            values = [[float(cell) for cell in row] for row in rows]
            assert all(len(row) == 3 for row in values)
            assert values[0] == [float("inf"), 0.0, 0.0] and values[-1][1:] == [1.0, 1.0]


class TestCachedScores:
    def test_cached_scores_keep_only_the_configured_nodes(self, tmp_path, generated_data):
        both = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        cached, fresh = tmp_path / "cached", tmp_path / "fresh"
        assert main(["evaluate", "--config", str(both), "--out", str(cached)]) == 0
        assert json.loads((cached / "summary.json").read_text())["EXP"]["nodes_scored"] == 2
        # node_000's test split has no positives here, so keep node_001
        one = tiny_run_config(tmp_path, generated_data, methods=["EXP"], nodes=["node_001"])
        for out in (cached, fresh):
            assert main(["evaluate", "--config", str(one), "--out", str(out)]) == 0
        for name in ("summary.json", "reports/EXP_roc.json", "reports/EXP_roc.csv"):
            assert (cached / name).read_bytes() == (fresh / name).read_bytes()

    def test_configured_nodes_missing_from_the_file_warn_once(
        self, tmp_path, generated_data, caplog
    ):
        one = tiny_run_config(tmp_path, generated_data, methods=["EXP"], nodes=["node_001"])
        out = tmp_path / "run"
        assert main(["score", "--config", str(one), "--out", str(out)]) == 0
        both = tiny_run_config(
            tmp_path, generated_data, methods=["EXP"], nodes=["node_000", "node_001"]
        )
        # the second evaluate reuses the first one's report, and warns again
        for _ in range(2):
            caplog.clear()
            assert main(["evaluate", "--config", str(both), "--out", str(out)]) == 0
            warnings = [r.getMessage() for r in caplog.records if "node_000" in r.getMessage()]
            assert len(warnings) == 1 and "EXP" in warnings[0]
            assert json.loads((out / "summary.json").read_text())["EXP"]["nodes_scored"] == 1

    def test_an_instance_with_an_error_keeps_no_earlier_report(self, tmp_path, generated_data):
        both = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        out = tmp_path / "run"
        assert main(["evaluate", "--config", str(both), "--out", str(out)]) == 0
        assert (out / "reports" / "EXP_roc.json").exists()
        absent = tiny_run_config(tmp_path, generated_data, methods=["EXP"], nodes=["node_009"])
        assert main(["evaluate", "--config", str(absent), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"EXP": {"error": "EXP: no node produced any scores"}}
        assert sorted(p.name for p in (out / "reports").iterdir()) == ["sources.json"]
        assert json.loads((out / "reports" / "sources.json").read_text())["instances"] == {}

    @pytest.mark.parametrize("nodes", [None, ["node_001"]])
    def test_cached_evaluate_needs_no_data_directory(self, tmp_path, generated_data, nodes):
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        cfg = tiny_run_config(tmp_path, data, methods=["EXP", "CLU"], nodes=nodes)
        out = tmp_path / "run"
        for step in ("train", "evaluate"):
            assert main([step, "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "summary.json").read_bytes()
        data.rename(tmp_path / "moved")
        (out / "summary.json").unlink()
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == first


def change_output(out, change):
    """Make one change to an evaluated output directory, as a user or a
    crash might; ``nodes`` changes the config instead."""
    reports = out / "reports"
    if change == "score file byte":
        path = out / "scores" / "EXP.csv"
        data = bytearray(path.read_bytes())
        # the last digit of the first probability written with several digits
        row = next(row for row in data.split(b"\r\n")[1:] if len(row.split(b",")[2]) > 4)
        at = data.index(row) + row.rindex(b",") - 1  # a row is unique by its node and bucket
        data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
        path.write_bytes(data)
    elif change == "score file recomputed":
        (out / "scores" / "EXP.csv").unlink()
    elif change == "report edited":
        path = reports / "EXP_roc.json"
        path.write_bytes(path.read_bytes().replace(b'"auc"', b'"AUC"', 1))
    elif change == "report deleted":
        (reports / "CLU_roc.csv").unlink()
    elif change == "summary deleted":
        (out / "summary.json").unlink()
    elif change == "record truncated":
        path = reports / "sources.json"
        path.write_bytes(path.read_bytes()[:100])
    elif change == "record deleted":
        (reports / "sources.json").unlink()
    elif change == "record format":
        record = json.loads((reports / "sources.json").read_text())
        write_json(reports / "sources.json", dict(record, format=record["format"] + 1))
    elif change == "record entry malformed":
        record = json.loads((reports / "sources.json").read_text())
        record["instances"]["EXP"]["roc_json_sha256"] = 5
        write_json(reports / "sources.json", record)


# each change, and the instances whose score file the next evaluate reads
REREAD = {
    "score file byte": ["EXP"], "score file recomputed": [], "nodes": ["EXP", "CLU"],
    "report edited": ["EXP"], "report deleted": ["CLU"], "summary deleted": [],
    "record truncated": ["EXP", "CLU"], "record deleted": ["EXP", "CLU"],
    "record format": ["EXP", "CLU"], "record entry malformed": ["EXP"],
}


class TestIncrementalEvaluate:
    @pytest.fixture(scope="class")
    def evaluated(self, tmp_path_factory, generated_data):
        tmp = tmp_path_factory.mktemp("incremental")
        cfg = tiny_run_config(tmp, generated_data, methods=["EXP", "CLU"])
        out = tmp / "run"
        for command in ("train", "score", "evaluate"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("change", list(REREAD))
    def test_a_change_gives_what_a_fresh_evaluate_gives(
        self, tmp_path, generated_data, evaluated, caplog, monkeypatch, change
    ):
        """Only the instances whose inputs or reports changed read their
        score file again (a recomputed one is scored, not read), and the
        outputs and log lines are those of an evaluate from scratch."""
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        shutil.copytree(evaluated, out)
        change_output(out, change)
        # the same inputs in a new directory, with no report, summary or record
        shutil.copytree(out, fresh, ignore=shutil.ignore_patterns("reports", "summary.json"))
        nodes = ["node_001"] if change == "nodes" else None
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU"], nodes=nodes)
        read = []

        def read_scores_csv(path, parse=scoring.read_scores_csv):
            read.append(path.stem)
            return parse(path)

        monkeypatch.setattr(scoring, "read_scores_csv", read_scores_csv)
        logs, trees = [], []
        for run in (out, fresh):
            caplog.clear()
            assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
            if run == out:
                assert read == REREAD[change]
            logs.append([(r.levelname, r.getMessage()) for r in caplog.records])
            files = sorted(p for p in run.rglob("*") if p.is_file())
            trees.append({str(p.relative_to(run)): p.read_bytes() for p in files})
        assert logs[0] == logs[1]
        assert trees[0].keys() == trees[1].keys()
        assert [p for p in trees[0] if trees[0][p] != trees[1][p]] == []

    @pytest.mark.parametrize("change, kept", [("score file byte", ["CLU"]), ("nodes", [])])
    def test_changed_inputs_read_no_old_report(
        self, tmp_path, generated_data, evaluated, monkeypatch, change, kept
    ):
        """An instance whose score file or ``nodes`` differ from its record
        is pooled without reading its old reports, and the new reports'
        digests come from the bytes written: only the kept instances'
        reports are read, and the record is that of a fresh evaluate."""
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        shutil.copytree(evaluated, out)
        change_output(out, change)
        shutil.copytree(out, fresh, ignore=shutil.ignore_patterns("reports", "summary.json"))
        nodes = ["node_001"] if change == "nodes" else None
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU"], nodes=nodes)
        read = []

        def read_bytes(path, read_file=cli.read_bytes):
            read.append(Path(path))
            return read_file(path)

        monkeypatch.setattr(cli, "read_bytes", read_bytes)
        for run in (out, fresh):
            assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
        assert [p.relative_to(out) for p in read if p.parent == out / "reports"] == [
            Path("reports", f"{name}_roc.{ext}") for name in kept for ext in ("json", "csv")
        ]
        assert [p for p in read if p.parent == fresh / "reports"] == []
        record = Path("reports", "sources.json")
        assert (out / record).read_bytes() == (fresh / record).read_bytes()

    def test_a_reused_report_warns_of_a_node_its_scores_lack(
        self, tmp_path, generated_data, caplog, monkeypatch
    ):
        """A configured node skipped when the scores were computed is missing
        from the score file: an evaluate that reuses the report warns of it
        as an evaluate that reads the file does."""
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        (data / "node_000.csv").write_text("not a node file\n")  # node_001 has the positives
        cfg = tiny_run_config(tmp_path, data, methods=["EXP"], nodes=["node_000", "node_001"])
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        # the same score file in a new directory, with no report, summary or record
        shutil.copytree(out / "scores", fresh / "scores")
        read = []

        def read_scores_csv(path, parse=scoring.read_scores_csv):
            read.append(path.parents[1])
            return parse(path)

        monkeypatch.setattr(scoring, "read_scores_csv", read_scores_csv)
        logs = []
        for run in (out, fresh):
            caplog.clear()
            assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
            logs.append([(r.levelname, r.getMessage().replace(str(run), "<out>"))
                         for r in caplog.records])
        assert read == [fresh]
        assert logs[0] == logs[1]
        assert logs[0][0] == (
            "WARNING", "EXP: the cached <out>/scores/EXP.csv has no scores for ['node_000']"
        )
        for name in ("summary.json", "reports/EXP_roc.json", "reports/EXP_roc.csv",
                     "reports/sources.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_reports_of_instances_no_longer_configured_are_deleted(
        self, tmp_path, generated_data, evaluated
    ):
        out = tmp_path / "run"
        shutil.copytree(evaluated, out)
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP"])
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        assert list(json.loads((out / "summary.json").read_text())) == ["EXP"]
        assert list(json.loads((out / "reports" / "sources.json").read_text())["instances"]) == [
            "EXP"
        ]
        assert sorted(p.name for p in (out / "reports").iterdir()) == [
            "EXP_roc.csv", "EXP_roc.json", "sources.json",
        ]
        # score files and models stay
        assert (out / "scores" / "CLU.csv").exists()
        assert (out / "models" / "node_000" / "CLU.json").exists()


def damage_score_file(path):
    """Give a score file's first row a probability that does not parse."""
    path.write_text(path.read_text().replace(",0.0,", ",zero,", 1))


class TestOneInstanceAtATime:
    """Missing score files are computed first; then each instance is read
    and pooled, or its reports reused, before the next, in config order."""

    def test_each_cached_instance_is_pooled_before_the_next_is_read(
        self, tmp_path, generated_data, monkeypatch
    ):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "RUAD"])
        out = tmp_path / "run"
        for i, name in enumerate(["EXP", "CLU", "RUAD_W5"]):
            series = ScoreSeries(
                node_id="node_000",
                bucket_starts=np.arange(8) * 900,
                probabilities=np.linspace(0.0, 1.0, 8) ** (i + 1),
                labels=np.array([0, 0, 1, 0, 1, 0, 1, 1]),
            )
            write_scores_csv(out / "scores" / f"{name}.csv", [series])
        calls = []

        def read_scores_csv(path, parse=scoring.read_scores_csv):
            calls.append(("read", path.stem))
            return parse(path)

        def pool_nodes(series_list, pool=scoring.pool_nodes):
            calls.append(("pool", len(series_list)))
            return pool(series_list)

        monkeypatch.setattr(scoring, "read_scores_csv", read_scores_csv)
        monkeypatch.setattr(scoring, "pool_nodes", pool_nodes)
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == [
            ("read", "EXP"), ("pool", 1), ("read", "CLU"), ("pool", 1),
            ("read", "RUAD_W5"), ("pool", 1),
        ]

    def test_a_damaged_score_file_between_two_others(self, tmp_path, generated_data, caplog):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU", "DENSE_un"])
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        for command in ("train", "score", "evaluate"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        kept = {name: (out / name).read_bytes() for name in ("summary.json", "reports/sources.json")}
        path = out / "scores" / "CLU.csv"
        damage_score_file(path)
        proc = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and str(path) in errors[0]
        assert {name: (out / name).read_bytes() for name in kept} == kept
        path.unlink()
        # the same inputs in a new directory, with no report, summary or record
        shutil.copytree(out, fresh, ignore=shutil.ignore_patterns("reports", "summary.json"))
        logs, trees = [], []
        for run in (out, fresh):
            caplog.clear()
            assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
            logs.append([(r.levelname, r.getMessage()) for r in caplog.records])
            files = sorted(p for p in run.rglob("*") if p.is_file())
            trees.append({str(p.relative_to(run)): p.read_bytes() for p in files})
        assert logs[0] == logs[1]
        assert trees[0].keys() == trees[1].keys()
        assert [p for p in trees[0] if trees[0][p] != trees[1][p]] == []

    def test_score_writes_the_missing_files_before_reading_a_damaged_one(
        self, tmp_path, generated_data
    ):
        cfg = tiny_run_config(tmp_path, generated_data, methods=["EXP", "CLU"])
        out = tmp_path / "run"
        for command in ("train", "score"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        damaged, computed = out / "scores" / "EXP.csv", out / "scores" / "CLU.csv"
        scored = computed.read_bytes()
        damage_score_file(damaged)
        computed.unlink()
        # score writes the missing file and reads no cached one
        assert run_cli("score", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert computed.read_bytes() == scored
        proc = run_cli("evaluate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and str(damaged) in lines[0]


class TestOutputDirectories:
    @pytest.mark.parametrize(
        "command, blocked",
        [
            ("score", "scores"), ("evaluate", "reports"), ("train", "models/node_000"),
            ("score", "datasets"),
        ],
    )
    def test_file_in_the_way_exits_one_with_one_line(
        self, tmp_path, generated_data, command, blocked
    ):
        methods = ["CLU"] if command == "train" else ["EXP"]
        cfg = tiny_run_config(tmp_path, generated_data, methods=methods)
        out = tmp_path / "run"
        if command == "evaluate":
            assert main(["score", "--config", str(cfg), "--out", str(out)]) == 0
        (out / blocked).parent.mkdir(parents=True, exist_ok=True)
        (out / blocked).write_text("not a directory")
        proc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        errors = [line for line in lines if line.startswith("ERROR")]
        assert len(errors) == 1 and "Traceback" not in proc.stderr
        assert str(out / blocked) in errors[0]
        assert not (out / "summary.json").exists()


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "command, blocked, code, level",
        [
            ("evaluate", "run/scores/EXP.csv", 2, "ERROR"),
            ("score", "run/models/node_000/CLU.json", 2, "ERROR"),
            ("train", "data/node_000.csv", 0, "WARNING"),  # that node is skipped
            ("evaluate", "run/summary.json", 2, "ERROR"),
            ("score", "run/datasets/node_000.json", 2, "ERROR"),
        ],
        ids=["score-file", "model-file", "data-file", "summary-file", "dataset-copy"],
    )
    def test_directory_in_place_of_a_file_is_one_line(
        self, tmp_path, generated_data, command, blocked, code, level
    ):
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        methods = ["EXP"] if command == "evaluate" else ["CLU"]
        cfg = tiny_run_config(tmp_path, data, methods=methods)
        path = tmp_path / blocked
        path.unlink(missing_ok=True)
        path.mkdir(parents=True)
        proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        naming = [line for line in proc.stderr.splitlines() if str(path) in line]
        assert len(naming) == 1 and naming[0].startswith(level)
        assert [line for line in proc.stderr.splitlines() if line.startswith("ERROR")] == (
            naming if level == "ERROR" else []
        )
        if command == "train":
            jobs = json.loads((tmp_path / "run" / "train_log.json").read_text())["jobs"]
            assert [(j["node"], j["status"]) for j in jobs] == [
                ("node_000", "skipped-data"), ("node_001", "trained"),
            ]


class TestRunInvariants:
    @pytest.fixture(scope="class")
    def output_trees(self, tmp_path_factory, generated_data):
        """Every output file of train/score/evaluate, by relative path, for
        one run config under three settings of ``workers`` and ``nodes``, and
        of train/evaluate with no score step."""
        trees = {}
        for label, workers, nodes, commands in (
            ("one worker", 1, ["node_000", "node_001"], ("train", "score", "evaluate")),
            ("two workers", 2, ["node_000", "node_001"], ("train", "score", "evaluate")),
            ("nodes reversed", 1, ["node_001", "node_000"], ("train", "score", "evaluate")),
            # evaluate computes the score files itself, then pools them from disk
            ("no score step", 1, ["node_000", "node_001"], ("train", "evaluate")),
        ):
            tmp = tmp_path_factory.mktemp("invariants")
            cfg = tiny_run_config(
                tmp, generated_data, methods=["CLU", "DENSE_un", "RUAD"], windows=[5],
                training={"max_epochs": 1}, workers=workers, nodes=nodes,
            )
            out = tmp / "run"
            for command in commands:
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            files = sorted(p for p in out.rglob("*") if p.is_file())
            trees[label] = {str(p.relative_to(out)): p.read_bytes() for p in files}
        return trees

    @pytest.mark.parametrize("label", ["two workers", "nodes reversed", "no score step"])
    def test_outputs_are_byte_identical(self, output_trees, label):
        reference = output_trees["one worker"]
        # per node 3 stores, 2 loss files and 1 dataset copy; 3 score files, 6 reports and
        # the record of their sources, 2 logs
        assert len(reference) == 24
        assert {p for p in reference if p.startswith("datasets/")} == {
            "datasets/node_000.json", "datasets/node_001.json",
        }
        assert output_trees[label].keys() == reference.keys()
        assert [p for p in reference if output_trees[label][p] != reference[p]] == []


class Crash(BaseException):
    """A process killed mid-command: no ``except Exception`` in nodewatch catches it."""


def crashing_replace(k, after, replace=os.replace):
    """``os.replace``, but the k-th call (from 0) raises Crash, just before or
    just ``after`` the rename; None never crashes. Returns it and the list of
    destinations it was called with."""
    calls = []

    def patched(src, dst):
        calls.append(dst)
        if len(calls) - 1 != k:
            return replace(src, dst)
        if after:
            replace(src, dst)
        raise Crash

    return patched, calls


def file_bytes(out, dirs=None):
    """Every file under ``out``, or under its subdirectories ``dirs``, by path."""
    roots = [out / d for d in dirs] if dirs else [out]
    files = sorted(p for root in roots for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


# A child process that runs one nodewatch command and is killed with
# ``os._exit`` just before its k-th ``os.replace``, so no ``finally`` runs.
KILLED_CHILD = """
import os, sys
from nodewatch.cli import main
k, calls, replace = int(sys.argv[1]), [], os.replace
def killing_replace(src, dst):
    calls.append(dst)
    if len(calls) - 1 == k:
        os._exit(9)
    replace(src, dst)
os.replace = killing_replace
sys.exit(main(sys.argv[2:]))
"""


class TestCrashRecovery:
    def test_train_after_a_crash_at_any_rename_writes_what_a_clean_train_writes(
        self, tmp_path, generated_data, monkeypatch
    ):
        """``train`` crashes just before or just after its k-th ``os.replace``,
        for every k; an unpatched rerun then leaves ``models/`` and
        ``datasets/`` byte for byte as a clean run does. (``train_log.json``
        is left out: the rerun rightly calls the models saved before the
        crash ``skipped-exists``.)"""
        cfg = tiny_run_config(
            tmp_path, generated_data, methods=["DENSE_un", "RUAD"], windows=[5],
            training={"max_epochs": 1}, nodes=["node_000"],
        )
        kept = ("models", "datasets")
        counting_replace, renames = crashing_replace(None, False)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", counting_replace)
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "clean")]) == 0
        clean = file_bytes(tmp_path / "clean", kept)
        # the dataset copy, each model's store and loss history, the train log
        assert len(renames) == 6 and len(clean) == 5
        for k in range(len(renames)):
            for after in (False, True):
                out = tmp_path / f"crash_{k}_{after}"
                with monkeypatch.context() as patch:
                    patch.setattr(os, "replace", crashing_replace(k, after)[0])
                    with pytest.raises(Crash):
                        main(["train", "--config", str(cfg), "--out", str(out)])
                assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
                assert file_bytes(out, kept) == clean, (k, after)

    @pytest.mark.parametrize(
        "command, before, renames",
        [
            # one score file per instance
            ("score", ["train"], 4),
            # two reports per instance, summary.json and reports/sources.json
            ("evaluate", ["train", "score"], 10),
        ],
    )
    def test_a_rerun_after_a_crash_at_any_rename_writes_what_a_clean_run_writes(
        self, command, before, renames, tmp_path, generated_data, monkeypatch
    ):
        """``command`` crashes just before or just after its k-th
        ``os.replace``, for every k, in a directory where the commands
        ``before`` it have run; an unpatched rerun then leaves every file
        under ``--out`` byte for byte as a clean run does. No file is left
        out of the comparison: neither command writes a log."""
        cfg = tiny_run_config(
            tmp_path, generated_data, methods=["EXP", "CLU", "DENSE_un", "RUAD"], windows=[5],
            training={"max_epochs": 1},
        )

        def run(out):
            return main([command, "--config", str(cfg), "--out", str(out)])

        start = tmp_path / "start"
        for previous in before:
            assert main([previous, "--config", str(cfg), "--out", str(start)]) == 0
        shutil.copytree(start, tmp_path / "clean")
        counting_replace, calls = crashing_replace(None, False)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", counting_replace)
            assert run(tmp_path / "clean") == 0
        clean = file_bytes(tmp_path / "clean")
        assert len(calls) == renames
        for k in range(renames):
            for after in (False, True):
                out = tmp_path / f"crash_{k}_{after}"
                shutil.copytree(start, out)
                with monkeypatch.context() as patch:
                    patch.setattr(os, "replace", crashing_replace(k, after)[0])
                    with pytest.raises(Crash):
                        run(out)
                assert run(out) == 0
                assert file_bytes(out) == clean, (k, after)

    def test_a_killed_write_leaves_no_temp_file_after_the_rerun(self, tmp_path, generated_data):
        """A child ``train`` killed by ``os._exit`` just before it renames the
        first model's store leaves that store's temp file; the rerun writes
        the store through the same temp name, so no ``.tmp`` file remains
        and ``models/`` and ``datasets/`` match a clean run's."""
        cfg = tiny_run_config(
            tmp_path, generated_data, training={"max_epochs": 1}, nodes=["node_000"]
        )
        command = ["train", "--config", str(cfg), "--out"]
        out = tmp_path / "killed"
        # renames: the dataset copy (0), DENSE_un's loss history (1), its store (2)
        child = subprocess.run(
            [sys.executable, "-c", KILLED_CHILD, "2", *command, str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(nodewatch.__file__).parents[1])},
        )
        assert child.returncode == 9, child.stderr
        assert [p.name for p in out.rglob("*.tmp")] == [".DENSE_un.json.tmp"]
        assert main([*command, str(out)]) == 0
        assert list(out.rglob("*.tmp")) == []
        assert main([*command, str(tmp_path / "clean")]) == 0
        kept = ("models", "datasets")
        assert file_bytes(out, kept) == file_bytes(tmp_path / "clean", kept)


class TestNodeMajorCommands:
    def test_each_node_file_is_read_once_per_command(
        self, tmp_path, generated_data, monkeypatch, parses
    ):
        splits = []
        split = pipeline.chronological_split

        def counting_split(dataset, ratio):
            splits.append(dataset.node_id)
            return split(dataset, ratio)

        monkeypatch.setattr(pipeline, "chronological_split", counting_split)
        cfg = tiny_run_config(
            tmp_path,
            generated_data,
            methods=["EXP", "CLU", "DENSE_un", "RUAD"],
            windows=[5, 10],
        )

        def run(command, out):
            parses.clear()
            splits.clear()
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            return sorted(p.name for p in parses), sorted(splits)

        out, models_only = tmp_path / "run", tmp_path / "models-only"
        per_command = {command: run(command, out) for command in ("train", "score", "evaluate")}
        shutil.copytree(out / "models", models_only / "models")
        per_command["score into models only"] = run("score", models_only)
        files, nodes = ["node_000.csv", "node_001.csv"], ["node_000", "node_001"]
        # score after train reads the parsed copies that train wrote into the same --out
        assert per_command == {
            "train": (files, nodes),
            "score": ([], nodes),
            "evaluate": ([], []),
            "score into models only": (files, nodes),
        }

    def check_every_detector_skips_an_overflowing_reading(self, tmp_path, generated_data, gap):
        """Set node_000's last test reading of m00_var to 1.7e308, inf when
        scaled, after a gap when ``gap``; every detector skips that node with
        the one reason ``apply_minmax`` gives and scores the other."""
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        bad = data / "node_000.csv"
        header, *rows = bad.read_text().splitlines(keepends=True)
        cells = rows[-1].split(",")  # the last row is a test row
        cells[header.split(",").index("m00_var")] = repr(1.7e308)
        if gap:  # the row becomes a run of its own, shorter than W
            cells[0] = str(int(cells[0]) + 900)
        rows[-1] = ",".join(cells)
        bad.write_text(header + "".join(rows))
        cfg = tiny_run_config(tmp_path, data, methods=["EXP", "CLU", "DENSE_un", "RUAD"])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

        score = run_cli("score", "--config", str(cfg), "--out", str(out))
        assert score.returncode == 0, score.stderr
        warnings = [line for line in score.stderr.splitlines() if line.startswith("WARNING")]
        reason = f"feature m00_var of bucket {cells[0]} overflows when scaled"
        assert [line.split(": ")[1:] for line in warnings] == [
            [name, "skipping node_000", reason] for name in ("EXP", "CLU", "DENSE_un", "RUAD_W5")
        ]
        assert "Traceback" not in score.stderr and "RuntimeWarning" not in score.stderr
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {name: s["nodes_scored"] for name, s in summary.items()} == {
            "EXP": 1, "CLU": 1, "DENSE_un": 1, "RUAD_W5": 1,
        }

    def test_node_a_detector_cannot_score_is_skipped_for_that_detector(
        self, tmp_path, generated_data
    ):
        self.check_every_detector_skips_an_overflowing_reading(tmp_path, generated_data, False)

    def test_overflow_no_window_covers_is_skipped_by_every_detector(
        self, tmp_path, generated_data
    ):
        # RUAD_W5 has no window that holds the row, and skips the node all the same
        self.check_every_detector_skips_an_overflowing_reading(tmp_path, generated_data, True)

    def test_node_without_a_scoreable_window_is_skipped_with_one_warning(
        self, tmp_path, generated_data
    ):
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        node = data / "node_000.csv"
        header, *rows = node.read_text().splitlines(keepends=True)
        for i in range(320, len(rows)):  # a gap before every test row
            _, rest = rows[i].split(",", 1)
            rows[i] = f"{(2 * i - 319) * 900},{rest}"
        node.write_text(header + "".join(rows))
        cfg = tiny_run_config(tmp_path, data, methods=["DENSE_un", "RUAD"])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

        score = run_cli("score", "--config", str(cfg), "--out", str(out))
        assert score.returncode == 0, score.stderr
        assert [line for line in score.stderr.splitlines() if line.startswith("WARNING")] == [
            "WARNING nodewatch: RUAD_W5: skipping node_000: "
            "no scoreable windows (need >= 5 consecutive buckets)"
        ]
        with open(out / "scores" / "RUAD_W5.csv", newline="") as fh:
            assert {row["node_id"] for row in csv.DictReader(fh)} == {"node_001"}

    def test_malformed_node_file_skips_only_that_node(self, tmp_path, generated_data):
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        bad = data / "node_000.csv"  # node_001 keeps the test positives
        lines = bad.read_text().splitlines(keepends=True)
        lines[10] = lines[10].rsplit(",", 1)[0] + "\n"  # one cell short
        bad.write_text("".join(lines))
        cfg = tiny_run_config(tmp_path, data, methods=["EXP", "CLU", "DENSE_un"])
        out = tmp_path / "run"

        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        jobs = json.loads((out / "train_log.json").read_text())["jobs"]
        assert sorted((j["node"], j["model"], j["status"]) for j in jobs) == [
            ("node_000", "CLU", "skipped-data"),
            ("node_000", "DENSE_un", "skipped-data"),
            ("node_001", "CLU", "trained"),
            ("node_001", "DENSE_un", "trained"),
        ]
        assert all(str(bad) in j["detail"] for j in jobs if j["node"] == "node_000")

        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {name: entry["nodes_scored"] for name, entry in summary.items()} == {
            "EXP": 1,
            "CLU": 1,
            "DENSE_un": 1,
        }


    @pytest.mark.parametrize("offset", [20, 2100, -100], ids=["header", "block", "deep"])
    def test_node_file_that_is_not_utf8_skips_only_that_node(
        self, tmp_path, generated_data, offset
    ):
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        bad = data / "node_000.csv"
        raw = bytearray(bad.read_bytes())
        raw[offset] = 0xFF
        bad.write_bytes(raw)
        cfg = tiny_run_config(tmp_path, data, methods=["EXP", "DENSE_un"])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        jobs = json.loads((out / "train_log.json").read_text())["jobs"]
        assert [(j["node"], j["status"]) for j in jobs] == [
            ("node_000", "skipped-data"), ("node_001", "trained"),
        ]
        assert jobs[0]["detail"].startswith(f"{bad}: not UTF-8 text")
        assert not (out / "datasets" / "node_000.json").exists()

        score = run_cli("score", "--config", str(cfg), "--out", str(out))
        assert score.returncode == 0 and "Traceback" not in score.stderr
        warnings = [line for line in score.stderr.splitlines() if line.startswith("WARNING")]
        assert len(warnings) == 1 and "skipping node_000 for every method" in warnings[0]
        assert str(bad) in warnings[0]

    def test_score_parses_a_node_file_edited_after_train(self, tmp_path, generated_data, parses):
        data = tmp_path / "data"
        shutil.copytree(generated_data, data)
        cfg = tiny_run_config(tmp_path, data, methods=["EXP", "DENSE_un"])
        out, before, fresh = tmp_path / "run", tmp_path / "before", tmp_path / "fresh"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        shutil.copytree(out / "models", before / "models")
        assert main(["score", "--config", str(cfg), "--out", str(before)]) == 0

        edited = data / "node_000.csv"
        header, *rows = edited.read_text().splitlines(keepends=True)
        cells = rows[-1].split(",")  # the last row is a test row
        cells[2] = repr(float(cells[2]) + 0.5)
        rows[-1] = ",".join(cells)
        edited.write_text(header + "".join(rows))
        parses.clear()
        assert main(["score", "--config", str(cfg), "--out", str(out)]) == 0
        assert parses == [edited]

        shutil.copytree(out / "models", fresh / "models")
        assert main(["score", "--config", str(cfg), "--out", str(fresh)]) == 0
        for name in ("EXP.csv", "DENSE_un.csv", "../datasets/node_000.json"):
            got = (out / "scores" / name).read_bytes()
            assert got == (fresh / "scores" / name).read_bytes(), name
            assert got != (before / "scores" / name).read_bytes(), name


class TestRunConfig:
    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown methods"):
            RunConfig(data_dir=str(tmp_path), methods=["DENSE_un", "LSTM_MEGA"])

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", data_dir=".", typo_key=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            read_config(RunConfig, path)

    def test_unknown_training_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="training keys"):
            RunConfig(data_dir=".", training={"momentum": 0.9})

    @pytest.mark.parametrize(
        "setting",
        [
            {"windows": [5, 5]},
            {"windows": [2.5]},
            {"training": {"batch_size": 0}},
            {"training": {"batch_size": 2.5}},
            {"nodes": ["node_000", "node_000"]},
            {"workers": 2.5},
            {"training": {"learning_rate": True}},
            {"seed": True},
            {"nodes": "node_000"},
            {"methods": "EXP"},
            {"data_dir": 5},
            {"training": [1]},
            {"nodes": []},
            {"training": {"learning_rate": math.inf}},
            # make_windows trusts this range
            {"windows": [0]},
            # a node's id is its file's stem
            {"nodes": ["sub/node_000"]},
            {"nodes": [""]},
            # no longer settings: refused as unknown keys, whatever their value
            {"exp_alpha": 0},
            {"exp_alpha": True},
            {"split_ratio": 0},
            {"split_ratio": 1.0},
            {"split_ratio": "0.8"},
        ],
        ids=[
            "duplicate-windows", "non-integer-window", "batch-size-0", "batch-size-2.5",
            "duplicate-nodes", "non-integer-workers", "learning-rate-true", "seed-true",
            "nodes-string", "methods-string", "data-dir-number", "training-list",
            "nodes-empty", "learning-rate-infinity", "window-0", "node-in-a-subdirectory",
            "node-without-a-name", "alpha-0", "alpha-true", "split-ratio-0",
            "split-ratio-1", "split-ratio-string",
        ],
    )
    def test_invalid_value_exits_one_with_one_line(self, tmp_path, setting):
        values = {"data_dir": ".", "methods": ["EXP", "RUAD"], **setting}
        if set(setting) <= {f.name for f in dataclasses.fields(RunConfig)}:
            with pytest.raises(ConfigError):
                RunConfig(**values)
        path = write_config(tmp_path / "run.json", **values)
        with pytest.raises(ConfigError):
            read_config(RunConfig, path)
        proc = run_cli("train", "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and str(path) in lines[0]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "split_ratio", 0.8),
            ("train", "exp_alpha", 0.1),
            ("generate", "regime_count", 3),
            ("generate", "noise_std", 0.1),
        ],
        ids=["split-ratio", "exp-alpha", "regime-count", "noise-std"],
    )
    def test_removed_setting_exits_one_with_one_line(self, tmp_path, command, key, value):
        # fixed values, not settings: a config that sets one is refused, not half-obeyed
        if command == "train":
            path = write_config(tmp_path / "run.json", data_dir=".", **{key: value})
        else:
            path = tiny_synth_config(tmp_path, **{key: value})
        proc = run_cli(command, "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"ERROR nodewatch: config error: {path}: unknown config keys ['{key}']"
        ]
        assert not (tmp_path / "o").exists()

    def test_nodes_must_be_a_list_of_names(self):
        with pytest.raises(ConfigError, match="nodes must be a list of node names"):
            RunConfig(data_dir=".", nodes="node_000")

    def test_method_instances_expand_windows(self):
        cfg = RunConfig(data_dir=".", methods=["EXP", "RUAD"], windows=[5, 10])
        assert cfg.method_instances() == [
            ("EXP", None, "EXP"), ("RUAD", 5, "RUAD_W5"), ("RUAD", 10, "RUAD_W10"),
        ]

    @pytest.mark.parametrize("command", ["score", "generate"])
    @pytest.mark.parametrize(
        "text", ['{"data_dir": "da', "5"], ids=["truncated", "not-an-object"]
    )
    def test_unreadable_config_exits_one_with_one_line(self, tmp_path, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli(command, "--config", str(path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and str(path) in lines[0]

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("bad", ["out-is-a-file", "config-is-a-directory", "config-missing"])
    def test_bad_path_exits_one_with_one_line(self, tmp_path, command, bad):
        if command == "generate":
            cfg = tiny_synth_config(tmp_path)
        else:
            cfg = write_config(tmp_path / "run.json", data_dir=str(tmp_path), methods=["EXP"])
        out = tmp_path / "o"
        if bad == "out-is-a-file":
            out.write_text("not a directory")
            named = out
        elif bad == "config-is-a-directory":
            cfg = named = tmp_path
        else:
            cfg = named = tmp_path / "missing.json"
        proc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("ERROR") and str(named) in lines[0]


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [["bogus", "--config", "run.json", "--out", "run"], ["train", "--config"], []],
        ids=["unknown-command", "option-without-value", "no-arguments"],
    )
    def test_usage_error_exits_one_with_one_line(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR")
        assert "usage:" not in proc.stderr and proc.stdout == ""

    def test_help_exits_zero(self):
        proc = run_cli("-h")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: nodewatch")
