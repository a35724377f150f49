"""Feature extraction for Hamming distance on binary vectors (paper §4.1).

The data is already binary, so records pass through unchanged.  Thresholds use
the identity when ``θ_max <= τ_max`` and the proportional map otherwise.
"""

from __future__ import annotations

import numpy as np

from .base import FeatureExtractor, integer_threshold_map


class HammingFeatureExtractor(FeatureExtractor):
    """Identity featurization for binary-vector data."""

    def __init__(self, dimension: int, theta_max: float, tau_max: int | None = None) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.theta_max = float(theta_max)
        if tau_max is None:
            tau_max = int(theta_max)
        self.tau_max = int(tau_max)

    def transform_records(self, records) -> np.ndarray:
        return (self._vector_rows(records, self.dimension) > 0.5).astype(np.float64)

    def transform_thresholds(self, thetas) -> np.ndarray:
        thetas = self.validate_thresholds(thetas)
        return integer_threshold_map(thetas, self.theta_max, self.tau_max)
