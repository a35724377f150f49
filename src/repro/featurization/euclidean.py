"""Feature extraction for Euclidean distance via p-stable LSH (paper §4.4).

Each hash function is ``h_{a,b}(x) = floor((a·x + b) / r)`` with ``a`` drawn
from N(0, I) and ``b`` uniform in [0, r].  Hash values are clipped to a fixed
range and one-hot encoded, so two records collide on a block with probability
``ε(θ)`` that decreases with their distance θ; the expected Hamming distance is
``(1 - ε(θ)) · d``.  The threshold transformation follows the paper:

    τ = floor( τ_max · (1 - ε(θ)) / (1 - ε(θ_max)) )

which is monotone in θ because ``ε`` is decreasing.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .base import FeatureExtractor, proportional_threshold_map


def collision_probability(theta, r: float):
    """P[h_{a,b}(x) = h_{a,b}(y)] for p-stable LSH when ||x - y|| = θ, elementwise in θ.

    Formula from Datar et al. (SOCG 2004):
        ε(θ) = 1 - 2·Φ(-r/θ) - (2 / (sqrt(2π)·r/θ)) · (1 - exp(-(r/θ)²/2))
    with ε(0) = 1 by continuity.
    """
    thetas = np.asarray(theta, dtype=np.float64)
    epsilon = np.ones(thetas.shape)
    # θ <= 0 collides surely; for vanishingly small θ (r/θ > 40) ε is 1 up to
    # terms below double precision and exp(ratio²) in the closed form overflows.
    with np.errstate(divide="ignore", over="ignore"):
        ratio = r / thetas
    closed_form = (thetas > 0.0) & (ratio <= 40.0)
    ratio = ratio[closed_form]
    term1 = 1.0 - 2.0 * ndtr(-ratio)
    term2 = (2.0 / (np.sqrt(2.0 * np.pi) * ratio)) * (1.0 - np.exp(-(ratio ** 2) / 2.0))
    epsilon[closed_form] = np.clip(term1 - term2, 0.0, 1.0)
    return epsilon[()]  # a scalar θ gives a scalar ε


class PStableEuclideanFeatureExtractor(FeatureExtractor):
    """p-stable LSH into one-hot encoded hash buckets."""

    def __init__(
        self,
        input_dimension: int,
        theta_max: float,
        num_hashes: int = 32,
        bucket_width: float = 0.5,
        max_hash_value: int = 7,
        tau_max: int = 16,
        seed: int = 0,
    ) -> None:
        if input_dimension <= 0:
            raise ValueError("input_dimension must be positive")
        self.input_dimension = int(input_dimension)
        self.num_hashes = int(num_hashes)
        self.bucket_width = float(bucket_width)
        self.max_hash_value = int(max_hash_value)
        self.block_size = self.max_hash_value + 1
        self.dimension = self.num_hashes * self.block_size
        self.theta_max = float(theta_max)
        self.tau_max = int(tau_max)
        rng = np.random.default_rng(seed)
        self._projections = rng.normal(0.0, 1.0, size=(self.num_hashes, self.input_dimension))
        self._offsets = rng.uniform(0.0, self.bucket_width, size=self.num_hashes)
        self._epsilon_at_max = float(collision_probability(self.theta_max, self.bucket_width))

    def collision_probabilities(self, thetas) -> np.ndarray:
        """ε(θ) per threshold at this extractor's bucket width."""
        return collision_probability(thetas, self.bucket_width)

    def hash_values(self, records) -> np.ndarray:
        """(n, num_hashes) integer hash values, clipped to [0, max_hash_value]."""
        matrix = self._vector_rows(records, self.input_dimension)
        raw = np.floor((matrix @ self._projections.T + self._offsets) / self.bucket_width)
        return np.clip(raw, 0, self.max_hash_value).astype(np.int64)

    def transform_records(self, records) -> np.ndarray:
        values = self.hash_values(records)
        matrix = np.zeros((len(values), self.dimension), dtype=np.float64)
        columns = np.arange(self.num_hashes) * self.block_size + values
        matrix[np.arange(len(values))[:, None], columns] = 1.0
        return matrix

    def transform_thresholds(self, thetas) -> np.ndarray:
        thetas = self.validate_thresholds(thetas)
        denominator = 1.0 - self._epsilon_at_max
        if denominator <= 1e-12:  # repro: ignore[RPR011] - a zero-variance test
            return np.zeros(thetas.shape, dtype=np.int64)
        # The proportional map on expected Hamming distance (1 - ε(θ)) · d.
        return proportional_threshold_map(
            1.0 - self.collision_probabilities(thetas), denominator, self.tau_max
        )
