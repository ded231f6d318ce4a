"""README's config reference names exactly the fields the config classes take,
and the messages README quotes are the ones the code gives.

A field added without a rule in the README, a rule left behind for a
removed field, or a message changed on one side only, fails here.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from nodewatch.cli import RunConfig
from nodewatch.errors import DataError
from nodewatch.methods import TrainingConfig
from nodewatch.pipeline import ScalerParams, apply_minmax
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
