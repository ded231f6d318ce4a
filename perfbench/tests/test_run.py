import pytest

import run


def test_scaled_median_uses_the_calibrations_either_side():
    ref = run.CALIBRATION_REFERENCE_S
    calibrations = [ref, ref, 2 * ref, 2 * ref]
    # 1 s between two reference-speed calibrations reads 1 s; 3 s between
    # a reference one and one twice as slow reads 2 s; 4 s between two
    # twice-as-slow ones reads 2 s
    samples = [(1.0, 0), (3.0, 1), (4.0, 2)]
    assert run.scaled_median(samples, calibrations) == pytest.approx(2.0)
    assert run.scaled_median(samples[:1], calibrations) == pytest.approx(1.0)


def test_scaled_median_needs_a_calibration_after_each_sample():
    with pytest.raises(IndexError):
        run.scaled_median([(1.0, 1)], [0.3, 0.3])
