"""Trivial estimators: the Mean baseline and the Exact oracle (paper §9.11).

* ``Mean`` returns the same cardinality for a given threshold regardless of the
  query — the average over offline random queries (quantized thresholds).
* ``Exact`` runs an exact similarity selection and returns the true value; in
  the paper it is the "oracle that instantly returns the exact cardinality"
  used as the upper bound for the query-optimizer case studies.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..core.interface import CardinalityEstimator, ScalarEstimatorMixin
from ..selection import SimilaritySelector
from ..workloads.examples import QueryExample


class MeanEstimator(CardinalityEstimator):
    """Returns the per-threshold-bucket mean cardinality seen during fitting."""

    name = "Mean"
    monotonic = True

    def __init__(self, theta_max: float, num_buckets: int = 64) -> None:
        self.theta_max = float(theta_max)
        self.num_buckets = int(num_buckets)
        self._bucket_means: Dict[int, float] = {}
        self._bucket_table = np.zeros(self.num_buckets)

    def _bucket(self, theta: float) -> int:
        if self.theta_max <= 0:
            return 0
        ratio = float(np.clip(theta / self.theta_max, 0.0, 1.0))
        return int(round(ratio * (self.num_buckets - 1)))

    def _buckets(self, thetas: np.ndarray) -> np.ndarray:
        if self.theta_max <= 0:
            return np.zeros(len(thetas), dtype=np.int64)
        ratios = np.clip(thetas / self.theta_max, 0.0, 1.0)
        return np.round(ratios * (self.num_buckets - 1)).astype(np.int64)

    def _rebuild_table(self) -> None:
        """Dense bucket → estimate table encoding the nearest-below fallback.

        Buckets below the first trained one take its mean, so the table is
        non-decreasing from bucket 0 (Lemma 2).
        """
        table = np.full(self.num_buckets, np.nan)
        for bucket, mean in self._bucket_means.items():
            table[bucket] = mean
        filled = self._bucket_means[min(self._bucket_means)] if self._bucket_means else 0.0
        for bucket in range(self.num_buckets):
            if np.isnan(table[bucket]):
                table[bucket] = filled
            else:
                filled = table[bucket]
        self._bucket_table = table

    def fit(
        self, train: Sequence[QueryExample], validation: Sequence[QueryExample] = ()
    ) -> "MeanEstimator":
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for example in list(train) + list(validation):
            bucket = self._bucket(example.theta)
            sums[bucket] = sums.get(bucket, 0.0) + example.cardinality
            counts[bucket] = counts.get(bucket, 0) + 1
        self._bucket_means = {bucket: sums[bucket] / counts[bucket] for bucket in sums}
        # Enforce monotonicity over buckets with a running maximum: the true
        # mean cardinality is non-decreasing in the threshold, but sampling
        # noise across buckets could break that.
        running = 0.0
        for bucket in range(self.num_buckets):
            if bucket in self._bucket_means:
                running = max(running, self._bucket_means[bucket])
                self._bucket_means[bucket] = running
        self._rebuild_table()
        return self

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """Query-independent: a table lookup answers the whole batch."""
        thetas = np.asarray(thetas, dtype=np.float64)
        return self._bucket_table[self._buckets(thetas)]

    def estimate_curve_many(self, records: Sequence[Any], thetas=None) -> np.ndarray:
        thetas = self._resolve_curve_thetas(thetas)
        row = self._bucket_table[self._buckets(thetas)]
        return np.tile(row, (len(records), 1))


class ExactEstimator(ScalarEstimatorMixin, CardinalityEstimator):
    """Oracle wrapping an exact similarity selector (always correct, never fast).

    Exact selection has no batched kernel — the mixin loops the selector — but
    the oracle still satisfies the batch-first interface for the harness.
    """

    name = "Exact"
    monotonic = True

    def __init__(self, selector: SimilaritySelector) -> None:
        self.selector = selector

    def estimate_one(self, record: Any, theta: float) -> float:
        return float(self.selector.cardinality(record, theta))
