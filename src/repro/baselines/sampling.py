"""DB-US: uniform-sampling cardinality estimation (paper §9.1.2).

A fixed uniform sample of the dataset is drawn once; the estimate for a query
is the count of matching sample records scaled by the inverse sampling ratio.
Because the sample is deterministic w.r.t. the query record, the estimate is
monotone in the threshold.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..core.interface import CardinalityEstimator
from ..distances import get_distance, within
from .common import counts_within_thresholds


class UniformSamplingEstimator(CardinalityEstimator):
    """Estimate via exact counting on a fixed uniform sample of the dataset."""

    name = "DB-US"
    monotonic = True

    def __init__(
        self,
        dataset_records: Sequence,
        distance_name: str,
        sample_ratio: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 < sample_ratio <= 1.0:
            raise ValueError("sample_ratio must be in (0, 1]")
        self.distance = get_distance(distance_name)
        self.sample_ratio = float(sample_ratio)
        rng = np.random.default_rng(seed)
        population = len(dataset_records)
        sample_size = max(1, int(round(sample_ratio * population)))
        picks = rng.choice(population, size=sample_size, replace=False)
        self._sample = [dataset_records[int(i)] for i in picks]
        self._scale = population / sample_size

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """One pairwise distance matrix against the sample answers the whole batch."""
        records = list(records)
        if not records:
            return np.zeros(0)
        distances = self.distance.cross_distances(records, self._sample)
        thetas = np.asarray(thetas, dtype=np.float64)
        counts = np.count_nonzero(within(distances, thetas[:, None]), axis=1)
        return counts.astype(np.float64) * self._scale

    def estimate_curve_many(
        self, records: Sequence[Any], thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Curves reuse the same distance matrix across every grid threshold."""
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        distances = self.distance.cross_distances(records, self._sample)
        return counts_within_thresholds(distances, thetas) * self._scale

    def size_in_bytes(self) -> int:
        # The sample itself is the only state; approximate with numpy sizes.
        total = 0
        for record in self._sample:
            if isinstance(record, np.ndarray):
                total += record.nbytes
            elif isinstance(record, str):
                total += len(record)
            elif isinstance(record, (set, frozenset)):
                total += 8 * len(record)
            else:
                total += 8
        return total
