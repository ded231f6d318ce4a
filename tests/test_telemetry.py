import csv
import re

import numpy as np
import numpy.testing as npt
import pytest

from nodewatch.errors import DataError
from nodewatch.telemetry import NodeDataset, feature_names_for


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
        back = NodeDataset.from_csv(path)
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
        plain = NodeDataset.from_csv(tmp_path / "plain.csv")
        marked = NodeDataset.from_csv(tmp_path / "marked.csv")
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
        "rows",
        [
            "0,0,1.5\n",
            "0,0,1.5,abc\n",
            "1.5,0,1.5,2.0\n",
            "0,0,nan,2.0\n",
            "0,0,1.5,inf\n",
            "",
            "0,0,1.5,2.0\n900,2,1.5,2.0\n",
        ],
        ids=[
            "short-row", "non-numeric", "non-integer-bucket", "nan", "inf", "header-only",
            "label-2",
        ],
    )
    def test_malformed_file_is_a_data_error_naming_it(self, tmp_path, rows):
        path = tmp_path / "node_000.csv"
        path.write_text("bucket_start,label,a_avg,b_avg\n" + rows)
        with pytest.raises(DataError, match=re.escape(str(path))):
            NodeDataset.from_csv(path)


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
