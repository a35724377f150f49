"""Unit and property tests for the evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    AccuracyReport,
    mape,
    mean_q_error,
    monotonicity_violation_rate,
    mse,
    msle,
)


class TestPointMetrics:
    def test_mse_known_value(self):
        assert mse([1.0, 2.0], [2.0, 4.0]) == pytest.approx((1 + 4) / 2)

    def test_mse_zero_for_perfect(self):
        assert mse([3.0, 7.0], [3.0, 7.0]) == 0.0

    def test_mape_known_value(self):
        assert mape([10.0, 20.0], [11.0, 18.0]) == pytest.approx((10.0 + 10.0) / 2)

    def test_mape_handles_zero_actual(self):
        assert np.isfinite(mape([0.0], [5.0]))

    def test_msle_symmetric_in_ratio(self):
        assert msle([10.0], [20.0]) == pytest.approx(msle([20.0], [10.0]))

    def test_mean_q_error_one_for_perfect(self):
        assert mean_q_error([5.0, 9.0], [5.0, 9.0]) == pytest.approx(1.0)

    def test_mean_q_error_symmetric(self):
        assert mean_q_error([10.0], [20.0]) == pytest.approx(mean_q_error([20.0], [10.0]))

    def test_mean_q_error_known_value(self):
        assert mean_q_error([10.0], [20.0]) == pytest.approx(2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse([1.0, 2.0], [1.0])

    def test_accuracy_report(self):
        report = AccuracyReport.from_predictions([10.0, 20.0], [12.0, 18.0])
        assert report.mse > 0
        assert set(report.as_dict()) == {"mse", "mape", "mean_q_error"}


class TestMonotonicity:
    def test_zero_for_monotone(self):
        estimates = [[1.0, 2.0], [2.0, 2.0], [5.0, 3.0]]
        assert monotonicity_violation_rate(estimates) == 0.0

    def test_detects_violations(self):
        estimates = [[5.0], [3.0], [4.0]]
        assert monotonicity_violation_rate(estimates) == pytest.approx(0.5)

    def test_single_threshold(self):
        assert monotonicity_violation_rate([[1.0, 2.0]]) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=20),
)
def test_metrics_zero_for_perfect_predictions(values):
    assert mse(values, values) == 0.0
    assert mape(values, values) == 0.0
    assert mean_q_error(values, values) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=20),
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=20),
)
def test_metrics_nonnegative(actual, estimated):
    length = min(len(actual), len(estimated))
    actual, estimated = actual[:length], estimated[:length]
    assert mse(actual, estimated) >= 0.0
    assert mape(actual, estimated) >= 0.0
    assert mean_q_error(actual, estimated) >= 1.0
