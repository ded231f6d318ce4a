import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodewatch.errors import DataError
from nodewatch.models import ModelSpec
from nodewatch.pipeline import (
    ScalerParams,
    apply_minmax,
    chronological_split,
    fit_minmax,
    make_windows,
    semi_supervised_filter,
    time_consistency_segments,
)
from nodewatch.telemetry import BUCKET_SECONDS

from conftest import build_dataset


class TestChronologicalSplit:
    def test_floor_arithmetic_ten_rows(self):
        split = chronological_split(build_dataset([0] * 10), 0.8)
        npt.assert_array_equal(split.train.bucket_starts, np.arange(8) * 900)
        npt.assert_array_equal(split.test.bucket_starts, np.arange(8, 10) * 900)

    def test_floor_arithmetic_five_rows(self):
        split = chronological_split(build_dataset([0] * 5), 0.8)
        assert len(split.train) == 4 and len(split.test) == 1

    def test_single_row_errors(self):
        with pytest.raises(DataError, match="at least 2 rows"):
            chronological_split(build_dataset([0]), 0.8)

    def test_degenerate_ratio_errors(self):
        with pytest.raises(DataError, match="empty side"):
            chronological_split(build_dataset([0, 0]), 0.05)

    def test_causality_every_train_bucket_precedes_test(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 50))
            ratio = float(rng.uniform(0.3, 0.9))
            split = chronological_split(build_dataset([0] * n), ratio)
            assert split.train.bucket_starts.max() < split.test.bucket_starts.min()
            assert len(split.train) == int(np.floor(ratio * n))


class TestSemiSupervisedFilter:
    def test_drops_anomalous_rows(self):
        ds = build_dataset([0, 1, 0])
        out = semi_supervised_filter(ds)
        npt.assert_array_equal(out.bucket_starts, [0, 1800])

    def test_identity_on_clean_data(self):
        ds = build_dataset([0, 0, 0])
        out = semi_supervised_filter(ds)
        npt.assert_array_equal(out.features, ds.features)

    def test_all_anomalous_errors(self):
        with pytest.raises(DataError, match="removed every row"):
            semi_supervised_filter(build_dataset([1, 1, 1]))

    def test_idempotent(self, rng):
        ds = build_dataset(rng.integers(0, 2, size=30))
        once = semi_supervised_filter(ds)
        twice = semi_supervised_filter(once)
        npt.assert_array_equal(once.bucket_starts, twice.bucket_starts)
        npt.assert_array_equal(once.features, twice.features)


class TestMinMaxScaler:
    def test_fit_column(self):
        ds = build_dataset([0, 0, 0], features=[[2.0], [4.0], [6.0]])
        params = fit_minmax(ds)
        npt.assert_array_equal(params.minimum, [2.0])
        npt.assert_array_equal(params.maximum, [6.0])

    def test_fit_constant_column(self):
        params = fit_minmax(build_dataset([0, 0], features=[[3.0], [3.0]]))
        assert params.minimum[0] == params.maximum[0] == 3.0

    def test_fit_single_row(self):
        params = fit_minmax(build_dataset([0], features=[[7.0, -1.0]]))
        npt.assert_array_equal(params.minimum, [7.0, -1.0])
        npt.assert_array_equal(params.maximum, [7.0, -1.0])

    def test_apply_midpoint(self):
        params = ScalerParams(minimum=np.array([2.0]), maximum=np.array([6.0]))
        out = apply_minmax(params, build_dataset([0], features=[[4.0]]))
        npt.assert_allclose(out.features, [[0.5]])

    def test_apply_does_not_clamp(self):
        params = ScalerParams(minimum=np.array([2.0]), maximum=np.array([6.0]))
        out = apply_minmax(params, build_dataset([0], features=[[8.0]]))
        npt.assert_allclose(out.features, [[1.5]])

    def test_constant_feature_scales_to_zero(self):
        params = ScalerParams(minimum=np.array([3.0]), maximum=np.array([3.0]))
        out = apply_minmax(params, build_dataset([0], features=[[7.0]]))
        npt.assert_allclose(out.features, [[0.0]])

    def test_dimension_mismatch_errors(self):
        params = ScalerParams(minimum=np.zeros(3), maximum=np.ones(3))
        with pytest.raises(DataError, match="features"):
            apply_minmax(params, build_dataset([0], features=[[1.0, 2.0]]))

    def test_train_set_maps_exactly_into_unit_interval(self, rng):
        ds = build_dataset([0] * 50, features=rng.normal(size=(50, 4)) * 10)
        scaled = apply_minmax(fit_minmax(ds), ds)
        assert scaled.features.min() >= 0.0 and scaled.features.max() <= 1.0
        npt.assert_allclose(scaled.features.min(axis=0), 0.0, atol=1e-15)
        npt.assert_allclose(scaled.features.max(axis=0), 1.0, atol=1e-15)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
                lambda v: round(v, 6)
            ),
            min_size=2,
            max_size=40,
        ),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_is_monotone_per_feature(self, column, x1, x2):
        ds = build_dataset([0] * len(column), features=[[v] for v in column])
        params = fit_minmax(ds)
        lo, hi = sorted((x1, x2))
        pair = apply_minmax(params, build_dataset([0, 0], features=[[lo], [hi]]))
        assert pair.features[0, 0] <= pair.features[1, 0]


class TestTimeConsistency:
    def test_gap_splits_segments(self):
        ds = build_dataset([0] * 4, bucket_starts=[0, 900, 1800, 3600])
        assert time_consistency_segments(ds) == [slice(0, 3), slice(3, 4)]

    def test_no_gaps_one_segment(self):
        assert time_consistency_segments(build_dataset([0] * 6)) == [slice(0, 6)]

    def test_empty_dataset_has_no_segments(self):
        assert time_consistency_segments(build_dataset([])) == []

    def test_filter_then_segment_matches_hand_enumeration(self):
        # 5 consecutive rows, middle one anomalous: filtering must leave two
        # runs, {0, 900} and {2700, 3600}
        filtered = semi_supervised_filter(build_dataset([0, 0, 1, 0, 0]))
        runs = time_consistency_segments(filtered)
        assert [filtered.bucket_starts[run].tolist() for run in runs] == [[0, 900], [2700, 3600]]


def sliding_windows_per_run(ds, w):
    """Reference windowing: walk the rows, restart the run at every gap, and
    emit the last W rows of the run whenever it holds W of them."""
    windows, run, previous = [], [], None
    for bucket, row in zip(ds.bucket_starts.tolist(), ds.features):
        if previous is not None and bucket - previous != BUCKET_SECONDS:
            run = []
        run.append(row)
        previous = bucket
        if len(run) >= w:
            windows.append(run[-w:])
    return np.array(windows).reshape(-1, w, ds.feature_count)


class TestWindowing:
    def test_count_for_single_segment(self):
        assert len(make_windows(build_dataset([0] * 12), 5)) == 8

    def test_short_segment_dropped(self):
        windows = make_windows(build_dataset([0] * 4, n_features=3), 5)
        assert windows.gather(slice(None)).shape == (0, 5, 3)
        assert windows.targets.shape == (0, 3)

    def test_counts_add_over_segments(self):
        buckets = list(range(10)) + list(range(20, 27))  # lengths 10 and 7
        ds = build_dataset([0] * 17, bucket_starts=[b * 900 for b in buckets])
        assert time_consistency_segments(ds) == [slice(0, 10), slice(10, 17)]
        assert len(make_windows(ds, 5)) == 6 + 3

    def test_window_count_formula_on_random_gap_patterns(self, rng):
        for _ in range(20):
            keep = rng.random(60) < 0.8
            buckets = np.flatnonzero(keep) * BUCKET_SECONDS
            if len(buckets) == 0:
                continue
            ds = build_dataset([0] * len(buckets), bucket_starts=buckets)
            runs = time_consistency_segments(ds)
            for w in (1, 3, 7):
                expected = sum(max(0, run.stop - run.start - w + 1) for run in runs)
                assert len(make_windows(ds, w)) == expected

    def test_windows_equal_a_per_run_slide_bit_for_bit(self, rng):
        for _ in range(30):
            keep = rng.random(80) < 0.85
            buckets = np.flatnonzero(keep) * BUCKET_SECONDS
            ds = build_dataset(
                rng.integers(0, 2, size=len(buckets)),
                bucket_starts=buckets,
                features=rng.normal(size=(len(buckets), 3)),
            )
            for w in (1, 2, 5, 10, 20):
                windows = make_windows(ds, w)
                every = windows.gather(np.arange(len(windows)))
                npt.assert_array_equal(every, sliding_windows_per_run(ds, w))
                # each target is a row of the dataset, with its own bucket and label
                rows = np.searchsorted(ds.bucket_starts, windows.target_bucket_starts)
                npt.assert_array_equal(windows.targets, ds.features[rows])
                npt.assert_array_equal(windows.target_labels, ds.labels[rows])

    def test_target_is_last_row_with_its_label(self, rng):
        labels = rng.integers(0, 2, size=15)
        ds = build_dataset(labels)
        windows = make_windows(ds, 4)
        npt.assert_array_equal(windows.targets, ds.features[3:])
        npt.assert_array_equal(windows.target_labels, labels[3:])
        npt.assert_array_equal(windows.target_bucket_starts, ds.bucket_starts[3:])

    def test_window_of_one_reduces_to_rows(self):
        ds = build_dataset([0, 1, 0], bucket_starts=[0, 1800, 3600])  # all gaps
        windows = make_windows(ds, 1)
        assert len(windows) == 3
        npt.assert_array_equal(windows.gather(slice(None))[:, 0, :], ds.features)

    def test_windows_share_the_scaled_rows(self, rng):
        train = build_dataset([0] * 30, features=rng.normal(size=(30, 4)))
        scaled = apply_minmax(fit_minmax(train), train)
        windows = make_windows(scaled, 10)
        assert np.shares_memory(windows.rows, scaled.features)
        npt.assert_array_equal(windows.gather(np.array([2, 0]))[:, -1], scaled.features[[11, 9]])

    def test_overflow_in_a_covered_test_row_is_a_data_error(self):
        train = build_dataset([0] * 6, features=np.linspace(0.0, 0.5, 12).reshape(6, 2))
        test = build_dataset([0] * 8, features=np.full((8, 2), 0.25))
        test.features[5, 1] = 1e308  # / a span of 0.5 overflows to inf
        with np.errstate(over="ignore"):
            scaled = apply_minmax(fit_minmax(train), test)
        assert np.isinf(scaled.features[5, 1])
        for w in (1, 3, 8):
            with pytest.raises(DataError, match="non-finite"):
                make_windows(scaled, w)

    def test_non_finite_row_no_window_covers_is_not_checked(self):
        # runs of 2 and 6 rows: W=3 covers only the second run
        ds = build_dataset([0] * 8, bucket_starts=[0, 900, *range(9000, 14400, 900)])
        ds.features[1, 0] = np.inf
        ds.features[0, 1] = np.nan
        windows = make_windows(ds, 3)
        assert len(windows) == 4
        assert np.isfinite(windows.gather(slice(None))).all()
        with pytest.raises(DataError, match="non-finite"):
            make_windows(ds, 2)

    def test_invalid_window_length(self):
        # make_windows takes W from a ModelSpec, which refuses W < 1
        with pytest.raises(DataError, match="window must be an integer >= 1"):
            ModelSpec(kind="ruad", input_dim=3, window=0)
