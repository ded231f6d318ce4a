"""README's config reference names exactly the fields the config classes take,
its Outputs list names exactly the keys each model store and the report
record hold and the format numbers they carry, and the messages README
quotes are the ones the code gives.

A field or store key added without a mention in the README, a mention left
behind for a removed one, or a message changed on one side only, fails here.
"""

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from nodewatch import models as mdl
from nodewatch import neuralnet as nn
from nodewatch.baselines import KMeansModel
from nodewatch.cli import SOURCES_FORMAT, RunConfig, main
from nodewatch.errors import DataError
from nodewatch.methods import TrainingConfig
from nodewatch.pipeline import ScalerParams, apply_minmax
from nodewatch.scoring import ScoreSeries, write_scores_csv
from nodewatch.synthgen import SynthConfig
from nodewatch.telemetry import NodeDataset

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def rules(heading):
    """The README's bullet list right after the line that ends ``heading``,
    one item per bullet, each item's lines joined."""
    match = re.search(re.escape(heading) + r"\n\n((?:- .*\n(?:  .*\n)*)+)", README)
    assert match, f"no list after {heading!r}"
    return [" ".join(item.split()) for item in match[1].removeprefix("- ").split("\n- ")]


def named(items):
    """The backquoted names before each item's first colon."""
    return {name for item in items for name in re.findall(r"`(\w+)`", item.split(":")[0])}


def names(cls, *without):
    return {f.name for f in fields(cls)} - set(without)


def test_run_config_reference_names_every_field():
    assert named(rules("`evaluate`):")) == names(RunConfig)


def test_training_keys_are_the_training_config_fields():
    (training,) = [item for item in rules("`evaluate`):") if item.startswith("`training`")]
    keys = set(re.findall(r"`(\w+)`", training.split("keys are among", 1)[1]))
    assert keys == names(TrainingConfig, "seed")  # the seed is derived per job


def test_synthetic_config_reference_names_every_field():
    assert named(rules("A synthetic-data config (`generate`):")) == names(SynthConfig)


def test_quoted_overflow_reason_is_the_one_apply_minmax_gives():
    row = NodeDataset("n", [1079100], [[1e308]], [0], feature_names=["m00_var"])
    with pytest.raises(DataError) as raised:
        apply_minmax(ScalerParams([0.0], [0.5]), row)
    assert re.findall(r'"([^"]*when scaled)"', README) == [str(raised.value)]


def listed_store_keys(kind):
    """{key: the keys listed in parentheses after it} for the store kind
    whose sentence in README's Outputs list starts "<kind> file holds"."""
    text = " ".join(README.split())
    match = re.search(re.escape(kind) + r" file holds (.*?)[;.] ", text)
    assert match, f"no list of the keys a {kind} file holds"
    pairs = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", match[1])
    return {key: set(re.findall(r"`(\w+)`", inner)) for key, inner in pairs}


def written_store_keys(path):
    """{key: the keys inside it} of a store file; an array's are not keys."""
    stored = json.loads(path.read_text(encoding="utf-8"))
    return {
        key: set(value) if isinstance(value, dict) and "shape" not in value else set()
        for key, value in stored.items()
    }


@pytest.mark.parametrize("kind", ["dense", "ruad"])
def test_autoencoder_store_keys_are_the_ones_readme_lists(tmp_path, kind):
    spec = mdl.ModelSpec(kind, 3, 2 if kind == "ruad" else 1)
    scaler = ScalerParams(np.zeros(3), np.ones(3))
    model = mdl.TrainedModel(spec, nn.init_params(mdl.layer_specs(spec), 0), scaler, 1.0,
                             mdl.Regime(semi_supervised=False), asdict(TrainingConfig()))
    path = mdl.save_trained_model(tmp_path / "model.json", model)
    assert written_store_keys(path) == listed_store_keys("An autoencoder")


def test_cluster_store_keys_are_the_ones_readme_lists(tmp_path):
    kmeans = KMeansModel(centroids=[[0.0, 0.0], [1.0, 1.0]], cluster_anomaly_prob=[0.0, 1.0],
                         seed=0)
    model = mdl.ClusterModel(ScalerParams(np.zeros(2), np.ones(2)), kmeans)
    path = mdl.save_cluster_model(tmp_path / "CLU.json", model)
    assert written_store_keys(path) == listed_store_keys("a `CLU`")


def test_report_record_keys_are_the_ones_readme_lists(tmp_path):
    series = ScoreSeries("node_000", [0, 900, 1800, 2700], [0.9, 0.1, 0.6, 0.2], [1, 0, 1, 0])
    out, cfg = tmp_path / "run", tmp_path / "run.json"
    write_scores_csv(out / "scores" / "EXP.csv", [series])
    cfg.write_text(json.dumps({"data_dir": "unread", "methods": ["EXP"]}))
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "reports" / "sources.json").read_text())
    written = {"format": set(), "instances": set(record["instances"]["EXP"])}
    assert written.keys() == record.keys()
    assert written == listed_store_keys("The record")


def test_quoted_format_numbers_are_the_ones_written():
    text = " ".join(README.split())
    assert set(re.findall(r'`"format": (\d+)`', text)) == {str(mdl.STORE_FORMAT)}
    (dataset,) = re.findall(r"dataset as parsed from .*? It holds `format` \((\d+)\)", text)
    assert dataset == str(mdl.DATASET_FORMAT)
    (record,) = re.findall(r"The record file holds `format` \((\d+)\)", text)
    assert record == str(SOURCES_FORMAT)
