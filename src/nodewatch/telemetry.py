"""The per-node dataset: one row per 15-minute bucket, carrying
(min, max, avg, var) per metric and a binary node-anomaly label.

A node's dataset is stored as a CSV file with the header
``bucket_start,label,<feature>...``: an integer bucket start in seconds, a
0/1 label, then one finite float per feature. :meth:`NodeDataset.from_csv`
is the only parser of node data and rejects any other shape with a
:class:`DataError` that names the file. A command keeps a parsed copy of each
node under its output directory (``models.load_node_dataset``), but writes it
only from what ``from_csv`` returned for the same bytes, so every check runs
before a copy exists. The synthetic generator writes these files; real
telemetry has to be aggregated into the same format first.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .util import csv_line, write_atomic

BUCKET_SECONDS = 900

AGGREGATES = ("min", "max", "avg", "var")


@dataclass
class NodeDataset:
    """Aligned feature matrix and labels for one node.

    ``bucket_starts`` are strictly increasing seconds; a step other than
    900 s is a gap, which the time-consistency filter keys on.
    ``features`` is row-per-bucket with a fixed, named column order.
    """

    node_id: str
    bucket_starts: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.bucket_starts = np.asarray(self.bucket_starts, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n = len(self.bucket_starts)
        if not (self.features.shape[0] == n == len(self.labels)):
            raise DataError("bucket_starts, features and labels must align row for row")
        if n > 1 and not np.all(np.diff(self.bucket_starts) > 0):
            raise DataError("bucket_starts must be strictly increasing")
        bad = np.flatnonzero((self.labels != 0) & (self.labels != 1))
        if len(bad):
            raise DataError(f"label {self.labels[bad[0]]} of bucket "
                            f"{self.bucket_starts[bad[0]]} is not 0 or 1")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.features.shape[1])]
        if len(self.feature_names) != self.features.shape[1]:
            raise DataError("feature_names must match the feature column count")

    def __len__(self) -> int:
        return len(self.bucket_starts)

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def take(self, index: slice | np.ndarray) -> "NodeDataset":
        """Row subset preserving column identity."""
        return NodeDataset(
            node_id=self.node_id,
            bucket_starts=self.bucket_starts[index],
            features=self.features[index],
            labels=self.labels[index],
            feature_names=list(self.feature_names),
        )

    def to_csv(self, path: str | Path) -> None:
        lines = [csv_line(["bucket_start", "label", *self.feature_names])]
        rows = zip(self.bucket_starts.tolist(), self.labels.tolist(), self.features.tolist())
        lines.extend(",".join(map(repr, [b, y, *f])) + "\r\n" for b, y, f in rows)
        write_atomic(path, "".join(lines))

    @classmethod
    def from_csv(cls, path: str | Path, data: bytes) -> "NodeDataset":
        """Parse ``data``, the bytes of the node dataset CSV at ``path`` as
        :meth:`to_csv` wrote it. The node id is the file's stem.

        The bytes are checked to be UTF-8 as a whole, then the header is read
        with ``csv`` and the rows with one ``np.loadtxt`` call, which parses
        floats to the same bits as ``float()``. Bytes that are not UTF-8, a
        header ``csv`` cannot read or that names no feature, a row of the
        wrong width, a cell that does not parse (an integer bucket and label,
        a float feature), a label other than 0 or 1, a non-finite feature and
        a file without rows are each a DataError naming the file.
        """
        path = Path(path)
        try:
            data.decode("utf-8-sig")  # the whole file, before any of it is parsed
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None
        # decoded in chunks as it is read, like a file opened with newline=""
        fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:  # a field longer than csv's limit
            raise DataError(f"{path}: malformed header ({exc})") from None
        if header is None:
            raise DataError(f"{path}: empty dataset file")
        if header[:2] != ["bucket_start", "label"]:
            raise DataError(f"{path}: expected header 'bucket_start,label,...'")
        names = header[2:]
        if not names:
            raise DataError(f"{path}: no feature columns after 'bucket_start,label'")
        dtype = np.dtype(
            [
                ("bucket_start", np.int64),
                ("label", np.int64),
                ("features", np.float64, (len(names),)),
            ]
        )
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, not warned about
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise DataError(f"{path}: malformed dataset row: {exc}") from None
        if not len(rows):
            raise DataError(f"{path}: dataset has no rows")
        bad = np.flatnonzero(~np.isfinite(rows["features"]).all(axis=1))
        if len(bad):
            bucket = rows["bucket_start"][bad[0]]
            raise DataError(f"{path}: non-finite feature in the row of bucket {bucket}")
        try:
            return cls(
                node_id=path.stem,
                bucket_starts=rows["bucket_start"],
                # a C-ordered matrix, not a strided view into the records
                features=np.ascontiguousarray(rows["features"]),
                labels=rows["label"],
                feature_names=names,
            )
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def feature_names_for(metric_order: list[str]) -> list[str]:
    """Column names for the aggregated matrix: <metric>_{min,max,avg,var}."""
    return [f"{m}_{agg}" for m in metric_order for agg in AGGREGATES]
