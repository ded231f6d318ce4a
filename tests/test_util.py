import errno
import json

import pytest
from conftest import build_dataset

from nodewatch import util
from nodewatch.cli import _write_loss_history
from nodewatch.scoring import RocReport, ScoreSeries, write_scores_csv
from nodewatch.util import write_atomic, write_json


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
