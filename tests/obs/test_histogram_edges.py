"""Quantile edge cases: empty, single-bucket, all-overflow.

The contract under test: degenerate inputs answer loudly (``nan``/``None``),
never a fabricated 0.0 a dashboard would happily plot as "all good".
"""

from __future__ import annotations

import math

import pytest

from repro.obs import Histogram, bucket_quantile


class TestEmptyHistogram:
    def test_every_quantile_is_nan(self):
        hist = Histogram("repro_lat_seconds")
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert math.isnan(hist.quantile(q))
        percentiles = hist.percentiles()
        assert all(math.isnan(v) for v in percentiles.values())

    def test_bucket_quantile_on_zero_counts_is_nan(self):
        assert math.isnan(bucket_quantile([1.0, 2.0], [0, 0, 0], 0.5))

    def test_invalid_q_raises_even_when_empty(self):
        hist = Histogram("repro_lat_seconds")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            bucket_quantile([1.0], [0, 0], -0.1)


class TestSingleBucket:
    def test_all_mass_in_one_bucket_interpolates_inside_it(self):
        hist = Histogram("repro_lat_seconds", buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            hist.observe(1.5)  # all in the (1.0, 2.0] bucket
        q50 = hist.quantile(0.5)
        assert 1.0 < q50 <= 2.0
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_single_boundary_histogram(self):
        hist = Histogram("repro_lat_seconds", buckets=(1.0,))
        hist.observe(0.5)
        # One finite bucket holding everything: q interpolates over (0, 1].
        assert 0.0 < hist.quantile(0.5) <= 1.0

    def test_lowest_bucket_interpolates_from_zero(self):
        hist = Histogram("repro_lat_seconds", buckets=(10.0, 20.0))
        hist.observe(3.0)
        hist.observe(7.0)
        q50 = hist.quantile(0.5)
        assert 0.0 < q50 <= 10.0


class TestOverflowBucket:
    def test_all_samples_in_overflow_answer_observed_max(self):
        hist = Histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for value in (5.0, 9.0, 42.0):
            hist.observe(value)
        # Every observation is beyond the last boundary; the fixed buckets
        # cannot interpolate, so the observed max is the honest upper bound.
        assert hist.quantile(0.5) == 42.0
        assert hist.quantile(0.99) == 42.0
