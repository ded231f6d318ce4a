import json

from nodewatch.util import write_json


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
