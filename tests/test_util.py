import errno
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from conftest import build_dataset

from nodewatch import util
from nodewatch.cli import RunConfig, _write_loss_history
from nodewatch.errors import ConfigError
from nodewatch.methods import TrainingConfig
from nodewatch.scoring import RocReport, ScoreSeries, write_scores_csv
from nodewatch.synthgen import SynthConfig
from nodewatch.util import field_rule, write_atomic, write_json

# every config class, with the fields it needs beyond its defaults
CONFIGS = [(RunConfig, {"data_dir": "."}), (SynthConfig, {}), (TrainingConfig, {})]


def test_write_json_bytes_match_json_dump(tmp_path):
    obj = {
        "summary": {
            "RUAD_W10": {"auc": 0.7631234567890123, "positives": 212, "negatives": 3556},
            "CLU": {"auc": 1 / 3, "positives": 0, "negatives": 1},
        },
        "floats": [0.1, -0.0, 1e-300, 2.5e17, 123456789.123456789, [1.5, {"z": 1e-5}]],
        "flags": {"b": True, "a": None, "é": "ü"},
    }
    write_json(tmp_path / "new.json", obj)
    # the bytes an earlier write_json produced, through json.dump
    with open(tmp_path / "old.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def failing_open(*args, **kwargs):
    """``open`` whose file takes the first 5 characters of a write, then
    fails as a full disk would."""
    fh = open(*args, **kwargs)

    class Full:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            fh.close()

        def write(self, text):
            fh.write(text[:5])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    return Full()


WRITERS = {
    "write_json": lambda path, n: write_json(path, {"values": list(range(n))}),
    "write_scores_csv": lambda path, n: write_scores_csv(
        path, [ScoreSeries("node_000", list(range(n)), [0.5] * n, [0] * n)]
    ),
    "write_points_csv": lambda path, n: RocReport(
        points=[(float(i), 0.0, 0.0) for i in range(n)], auc=0.5, positives=1, negatives=1
    ).write_points_csv(path),
    "_write_loss_history": lambda path, n: _write_loss_history(path, [0.25] * n),
    "NodeDataset.to_csv": lambda path, n: build_dataset([0] * n).to_csv(path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_part_way_leaves_the_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out" / "file"
    WRITERS[writer](path, 3)
    before = path.read_bytes()
    monkeypatch.setattr(util, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](path, 4)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == ["file"]  # no temp file left
    monkeypatch.undo()
    WRITERS[writer](path, 4)
    assert path.read_bytes() != before


def test_write_atomic_keeps_the_text_as_given(tmp_path):
    text = "a,b\r\nc\né\n"
    write_atomic(tmp_path / "new" / "t.csv", text)
    assert (tmp_path / "new" / "t.csv").read_bytes() == text.encode("utf-8")


def number_fields():
    """One case per number a config holds, read from the field list: an
    int or float field, the items of a list of numbers and the values of an
    object of numbers. ``place`` puts a number where the field holds it."""
    for cls, required in CONFIGS:
        hints = get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            origin, args = get_origin(hint), get_args(hint)
            if hint in (int, float):
                kind, place = hint, lambda v: v
            elif origin is list and args[0] in (int, float):
                kind, place = args[0], lambda v: [v]
            elif origin is dict and args[1] in (int, float):
                default = f.default_factory()
                first = next(iter(default))
                kind, place = args[1], lambda v, d=default, k=first: {**d, k: v}
            else:
                continue
            interval = f.metadata.get("range")
            yield pytest.param(
                cls, required, f.name, kind, interval, place, id=f"{cls.__name__}.{f.name}"
            )


@pytest.mark.parametrize("cls, required, name, kind, interval, place", number_fields())
def test_every_number_field_keeps_to_its_kind_and_range(
    cls, required, name, kind, interval, place
):
    """NaN, the infinities, ``true``, a float for an integer and a number
    just outside the range are refused; the default, a closed bound and the
    number just inside an open bound are taken."""
    rejected = [math.nan, math.inf, -math.inf, True] + ([2.0] if kind is int else [])
    accepted = []
    if interval:
        low, high = (float(bound) for bound in interval[1:-1].split(","))
        step = (lambda x, to: x + (1 if to > x else -1)) if kind is int else math.nextafter
        for bound, closed, outward in (
            (low, interval[0] == "[", -math.inf),
            (high, interval[-1] == "]", math.inf),
        ):
            if math.isinf(bound):
                continue
            bound = kind(bound)
            if closed:
                accepted.append(bound)
                rejected.append(step(bound, outward))
            else:
                rejected.append(bound)
                accepted.append(step(bound, -outward))
    for value in rejected:
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            cls(**required, **{name: place(value)})
    cls(**required)  # the default
    for value in accepted:
        assert getattr(cls(**required, **{name: place(value)}), name) == place(value)


@pytest.mark.parametrize("cls", [cls for cls, _ in CONFIGS], ids=lambda cls: cls.__name__)
def test_every_config_field_has_a_rule(cls):
    hints = get_type_hints(cls)
    for f in fields(cls):
        field_rule(f.name, hints[f.name], f.metadata.get("range"))


@pytest.mark.parametrize(
    "hint", [Path, bool, tuple[int], set[str], list[float | None], int | str, list]
)
def test_an_annotation_without_a_rule_is_refused(hint):
    with pytest.raises(TypeError, match="no rule"):
        field_rule("x", hint)
