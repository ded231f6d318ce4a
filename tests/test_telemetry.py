import csv
import hashlib
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from nodewatch.errors import DataError
from nodewatch.models import load_node_dataset
from nodewatch.telemetry import NodeDataset, feature_names_for

HEADER = "bucket_start,label,a_avg,b_avg\n"


class TestAggregation:
    def test_feature_names_follow_metric_order(self):
        assert feature_names_for(["cpu", "mem"]) == [
            "cpu_min",
            "cpu_max",
            "cpu_avg",
            "cpu_var",
            "mem_min",
            "mem_max",
            "mem_avg",
            "mem_var",
        ]


class TestCsvInterfaces:
    def test_node_dataset_round_trip(self, tmp_path):
        ds = NodeDataset(
            node_id="node_007",
            bucket_starts=np.array([0, 900, 2700]),
            features=np.array([[0.25, -1.5], [1e-9, 3.0], [2.0, 4.0]]),
            labels=np.array([0, 1, 0]),
            feature_names=["a_avg", "b_avg"],
        )
        path = tmp_path / "node_007.csv"
        ds.to_csv(path)
        back = NodeDataset.from_csv(path, path.read_bytes())
        assert back.node_id == "node_007"
        assert back.feature_names == ["a_avg", "b_avg"]
        npt.assert_array_equal(back.bucket_starts, ds.bucket_starts)
        npt.assert_array_equal(back.labels, ds.labels)
        npt.assert_array_equal(back.features, ds.features)

    def test_leading_byte_order_mark_is_read_past(self, tmp_path):
        # spreadsheet exports start a UTF-8 file with EF BB BF
        text = "bucket_start,label,a_avg,b_avg\r\n0,0,0.5,1.0\r\n900,1,0.25,2.0\r\n"
        (tmp_path / "plain.csv").write_bytes(text.encode("utf-8"))
        (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        plain, marked = (
            NodeDataset.from_csv(path, path.read_bytes())
            for path in (tmp_path / "plain.csv", tmp_path / "marked.csv")
        )
        assert marked.feature_names == plain.feature_names == ["a_avg", "b_avg"]
        npt.assert_array_equal(marked.bucket_starts, plain.bucket_starts)
        npt.assert_array_equal(marked.labels, plain.labels)
        npt.assert_array_equal(marked.features, plain.features)

    def test_to_csv_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = NodeDataset(
            node_id="node_001",
            bucket_starts=np.arange(20) * 900,
            features=rng.normal(size=(20, 3)) * np.array([1.0, 1e-12, 1e15]),
            labels=rng.integers(0, 2, size=20),
            feature_names=["a_min", 'b,"max"', "c_avg"],
        )
        ds.to_csv(tmp_path / "got.csv")
        with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bucket_start", "label", *ds.feature_names])
            for i in range(len(ds)):
                writer.writerow(
                    [int(ds.bucket_starts[i]), int(ds.labels[i])]
                    + [repr(float(v)) for v in ds.features[i]]
                )
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            HEADER + "0,0,1.5\n",
            HEADER + "0,0,1.5,abc\n",
            HEADER + "1.5,0,1.5,2.0\n",
            HEADER + "0,0,nan,2.0\n",
            HEADER + "0,0,1.5,inf\n",
            HEADER,
            HEADER + "0,0,1.5,2.0\n900,2,1.5,2.0\n",
            "bucket_start,label\n" + "".join(f"{900 * i},0\n" for i in range(40)),
        ],
        ids=[
            "short-row", "non-numeric", "non-integer-bucket", "nan", "inf", "header-only",
            "label-2", "no-features",
        ],
    )
    def test_malformed_file_is_a_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "node_000.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(str(path))):
            NodeDataset.from_csv(path, path.read_bytes())
        # the loader gives the same error and keeps no parsed copy of the file
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_node_dataset(path, tmp_path / "copy.json")
        assert not (tmp_path / "copy.json").exists()

    @pytest.mark.parametrize("offset", [0, 20, 2100, -40], ids=["first", "header", "block", "deep"])
    def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_file(self, tmp_path, offset):
        ds = NodeDataset(
            node_id="node_000",
            bucket_starts=np.arange(100) * 900,
            features=np.linspace(0.0, 1.0, 400).reshape(100, 4),
            labels=np.zeros(100, dtype=np.int64),
            feature_names=["a_min", "a_max", "a_avg", "a_var"],
        )
        path = tmp_path / "node_000.csv"
        ds.to_csv(path)
        data = bytearray(path.read_bytes())
        data[offset] = 0xFF
        path.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            NodeDataset.from_csv(path, path.read_bytes())

    def test_header_past_the_csv_field_limit_is_a_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "node_000.csv"
        path.write_text("bucket_start,label," + "a" * 200_000 + "\n0,0,1.0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed header")):
            NodeDataset.from_csv(path, path.read_bytes())


class TestNodeDatasetInvariants:
    def test_misaligned_lengths_rejected(self):
        with pytest.raises(DataError):
            NodeDataset(
                node_id="x",
                bucket_starts=np.array([0, 900]),
                features=np.zeros((3, 2)),
                labels=np.array([0, 0]),
            )

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            NodeDataset(
                node_id="x",
                bucket_starts=np.array([900, 900]),
                features=np.zeros((2, 2)),
                labels=np.array([0, 0]),
            )


def node_dataset(bucket_starts=(0, 900, 2700), node_id="node_000"):
    return NodeDataset(
        node_id=node_id,
        bucket_starts=np.array(bucket_starts),
        features=np.array([[0.25, -1.5], [1e-9, 3.0], [2.0, 4.0]]),
        labels=np.array([0, 1, 0]),
        feature_names=["a_avg", 'b,"avg"'],
    )


def assert_same_dataset(got, want):
    assert got.node_id == want.node_id
    assert got.feature_names == want.feature_names
    for key in ("bucket_starts", "labels", "features"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key


class TestParsedCopies:
    @pytest.fixture
    def files(self, tmp_path):
        csv_path = tmp_path / "data" / "node_000.csv"
        csv_path.parent.mkdir()
        node_dataset().to_csv(csv_path)
        return csv_path, tmp_path / "run" / "datasets" / "node_000.json"

    def test_a_hit_equals_a_fresh_parse_bit_for_bit(self, files, parses):
        csv_path, copy_path = files
        first = load_node_dataset(csv_path, copy_path)
        assert parses == [csv_path] and copy_path.exists()
        written = copy_path.read_bytes()
        hit = load_node_dataset(csv_path, copy_path)
        assert parses == [csv_path]  # the second load parsed nothing
        assert copy_path.read_bytes() == written
        for got in (first, hit):
            assert_same_dataset(got, NodeDataset.from_csv(csv_path, csv_path.read_bytes()))

    def test_the_copy_records_the_csv_digest_and_its_content(self, files):
        csv_path, copy_path = files
        load_node_dataset(csv_path, copy_path)
        d = json.loads(copy_path.read_text())
        assert sorted(d) == [
            "bucket_starts", "content_sha256", "csv_sha256", "feature_names", "features",
            "format", "labels",
        ]
        assert d["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert d["bucket_starts"]["shape"] == [3] and "i8" in d["bucket_starts"]
        assert d["features"]["shape"] == [3, 2] and "f8" in d["features"]

    def test_bucket_starts_beyond_float_precision_round_trip(self, tmp_path, parses):
        starts = [2**62, 2**62 + 900, 2**62 + 2700]
        assert [int(float(start)) for start in starts] != starts  # float64 would move them
        csv_path, copy_path = tmp_path / "node_000.csv", tmp_path / "node_000.json"
        node_dataset(starts).to_csv(csv_path)
        load_node_dataset(csv_path, copy_path)
        hit = load_node_dataset(csv_path, copy_path)
        assert len(parses) == 1
        assert hit.bucket_starts.tolist() == starts

    @pytest.mark.parametrize(
        "damage", ["truncated", "empty", "another format", "another digest", "not an object"]
    )
    def test_a_damaged_copy_is_rebuilt_silently(self, files, parses, caplog, damage):
        csv_path, copy_path = files
        want = load_node_dataset(csv_path, copy_path)
        written = copy_path.read_bytes()
        d = json.loads(written)
        if damage == "truncated":
            copy_path.write_bytes(written[: len(written) // 2])
        elif damage == "empty":
            copy_path.write_bytes(b"")
        elif damage == "another format":
            copy_path.write_text(json.dumps(dict(d, format=d["format"] + 1)))
        elif damage == "another digest":
            copy_path.write_text(json.dumps(dict(d, csv_sha256="0" * 64)))
        else:
            copy_path.write_text("[]")
        caplog.set_level("DEBUG")
        assert_same_dataset(load_node_dataset(csv_path, copy_path), want)
        assert len(parses) == 2 and caplog.records == []
        assert copy_path.read_bytes() == written

    def test_every_flipped_byte_of_a_copy_is_caught(self, files):
        csv_path, copy_path = files
        want = load_node_dataset(csv_path, copy_path)
        written = copy_path.read_bytes()
        for position in range(len(written)):
            flipped = bytearray(written)
            flipped[position] ^= 0x01
            copy_path.write_bytes(flipped)
            got = load_node_dataset(csv_path, copy_path)
            try:
                assert_same_dataset(got, want)
            except AssertionError:
                pytest.fail(f"the copy with byte {position} flipped was trusted")
