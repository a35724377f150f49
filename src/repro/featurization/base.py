"""Feature-extraction interface: h(x, θ) → (binary vector, integer threshold).

Paper §3.2: feature extraction decouples data modelling from regression.  Any
record type is mapped to a fixed-dimensional binary vector whose Hamming
distances (exactly or approximately) capture the original distance semantics,
and any threshold θ in ``[0, θ_max]`` is mapped monotonically to an integer τ
in ``[0, τ_max]`` (Lemma 1 requires the threshold transform to be monotone).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Sequence

import numpy as np

from ..distances.base import integer_radius


class FeatureExtractor(ABC):
    """Maps records and thresholds into the Hamming-space interface of CardNet."""

    #: Dimensionality of the produced binary vectors.
    dimension: int
    #: Maximum integer threshold τ_max (controls the number of decoders).
    tau_max: int
    #: Maximum original threshold θ_max supported.
    theta_max: float

    @abstractmethod
    def transform_records(self, records: Sequence[Any]) -> np.ndarray:
        """(n, d) float64 matrix of binary representations x ∈ {0, 1}^d, one row per record.

        The one record → vector definition of an extractor, one array pass per
        batch; an empty batch is a (0, d) matrix.  The scalar form delegates here.
        """

    def transform_record(self, record: Any) -> np.ndarray:
        """Scalar form of :meth:`transform_records` (a one-element batch)."""
        return self.transform_records([record])[0]

    @abstractmethod
    def transform_thresholds(self, thetas: Sequence[float]) -> np.ndarray:
        """Monotone map from each θ ∈ [0, θ_max] to τ ∈ [0, τ_max] (int64 vector).

        The one θ → τ definition of an extractor; the scalar form delegates here.
        """

    def transform_threshold(self, theta: float) -> int:
        """Scalar form of :meth:`transform_thresholds` (a one-element batch)."""
        return int(self.transform_thresholds(np.asarray([theta], dtype=np.float64))[0])

    # ------------------------------------------------------------------ #
    # Batch helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _vector_rows(records: Sequence[Any], width: int) -> np.ndarray:
        """Vector records as an (n, width) float64 matrix; any other width raises.

        The single shape check of the extractors whose records are vectors.
        """
        matrix = np.asarray(records, dtype=np.float64)
        if not len(records):
            return matrix.reshape(0, width)
        matrix = matrix.reshape(len(records), -1)
        if matrix.shape[1] != width:
            raise ValueError(f"expected {width}-dimensional vectors, got {matrix.shape[1]}")
        return matrix

    def validate_thresholds(self, thetas: Sequence[float]) -> np.ndarray:
        """Range check shared by every ``transform_thresholds``; returns the float array.

        The single place the accepted range/tolerance lives.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.size and (thetas.min() < 0 or thetas.max() > self.theta_max + 1e-9):
            raise ValueError(
                f"thresholds outside supported range [0, {self.theta_max}]"
            )
        return thetas

    def available_taus(self) -> List[int]:
        """All integer thresholds that some θ ∈ [0, θ_max] can map to."""
        taus = self.transform_thresholds(np.linspace(0.0, self.theta_max, 512))
        return np.unique(taus).tolist()


def proportional_threshold_map(
    thetas: Sequence[float], theta_max: float, tau_max: int
) -> np.ndarray:
    """τ = floor(τ_max · θ / θ_max), the transformation used for HM/ED/JC (§4).

    Array-valued (a scalar θ gives a scalar).  For integer-valued
    distances with θ_max <= τ_max :func:`integer_threshold_map` uses the
    identity instead.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if theta_max <= 0:
        return np.zeros(thetas.shape, dtype=np.int64)
    ratios = np.clip(thetas / theta_max, 0.0, 1.0)
    return integer_radius(tau_max * ratios)


def integer_threshold_map(thetas: np.ndarray, theta_max: float, tau_max: int) -> np.ndarray:
    """θ → τ for integer-valued distances (HM/ED), on range-checked ``thetas``:
    the radius the exact indexes answer θ with when θ_max fits in τ_max — each
    original threshold keeps its own decoder — and the proportional map otherwise."""
    if theta_max <= tau_max:
        return integer_radius(thetas)
    return proportional_threshold_map(thetas, theta_max, tau_max)
