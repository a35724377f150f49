"""TL-KDE: kernel-density estimation of selection cardinality (paper §9.1.2).

Following the kernel-based estimators for metric data [57] and
multidimensional selectivity [32], a fixed sample of the dataset is kept; the
cardinality of a query (x, θ) is estimated by smoothing the indicator
``1[d(x, s) <= θ]`` over the sample with a Gaussian kernel on the *distance*
axis:

    ĉ(x, θ) = (|D| / |S|) · Σ_{s ∈ S} Φ((θ - d(x, s)) / h)

where Φ is the standard normal CDF and ``h`` the bandwidth.  The estimate is
monotone in θ because Φ is increasing and the sample is fixed.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from ..core.interface import CardinalityEstimator
from ..distances import get_distance


class KernelDensityEstimator(CardinalityEstimator):
    """Gaussian-kernel smoothing of the distance indicator over a fixed sample."""

    name = "TL-KDE"
    monotonic = True

    def __init__(
        self,
        dataset_records: Sequence,
        distance_name: str,
        sample_size: int = 200,
        bandwidth: float | None = None,
        seed: int = 0,
    ) -> None:
        self.distance = get_distance(distance_name)
        rng = np.random.default_rng(seed)
        population = len(dataset_records)
        sample_size = min(sample_size, population)
        picks = rng.choice(population, size=sample_size, replace=False)
        self._sample = [dataset_records[int(i)] for i in picks]
        self._scale = population / sample_size
        self.bandwidth = bandwidth

    def _resolve_bandwidths(self, distances: np.ndarray) -> np.ndarray:
        """Per-query Silverman-style bandwidths for an (n, sample) distance matrix."""
        if self.bandwidth is not None:
            return np.full(distances.shape[0], float(self.bandwidth))
        spreads = np.std(distances, axis=1)
        bandwidths = 1.06 * spreads * distances.shape[1] ** (-1.0 / 5.0)
        return np.where(spreads <= 0, 1.0, bandwidths)

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0)
        distances = self.distance.cross_distances(records, self._sample)
        bandwidths = self._resolve_bandwidths(distances)
        thetas = np.asarray(thetas, dtype=np.float64)
        smoothed = ndtr((thetas[:, None] - distances) / bandwidths[:, None])
        return smoothed.sum(axis=1) * self._scale

    def estimate_curve_many(
        self, records: Sequence[Any], thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Curves reuse the distance matrix and bandwidths across the grid.

        Evaluated one grid column at a time so no (records × grid × sample)
        temporary is materialized."""
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        distances = self.distance.cross_distances(records, self._sample)
        scaled_bandwidths = self._resolve_bandwidths(distances)[:, None]
        curves = np.empty((len(records), len(thetas)))
        for column, theta in enumerate(thetas):
            curves[:, column] = ndtr((theta - distances) / scaled_bandwidths).sum(axis=1)
        return curves * self._scale

    def size_in_bytes(self) -> int:
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
