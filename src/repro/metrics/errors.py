"""Evaluation metrics for cardinality estimation (paper §2.1 and §9.2).

The paper reports MSE, MAPE, and mean q-error (MSLE is its training loss).
Monotonicity is one of the paper's headline properties, so a
monotonicity-violation metric is provided as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np


def _to_arrays(actual: Sequence[float], estimated: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    actual_array = np.asarray(actual, dtype=np.float64)
    estimated_array = np.asarray(estimated, dtype=np.float64)
    if actual_array.shape != estimated_array.shape:
        raise ValueError(
            f"actual and estimated must align: {actual_array.shape} vs {estimated_array.shape}"
        )
    return actual_array, estimated_array


def mse(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """Mean squared error."""
    actual_array, estimated_array = _to_arrays(actual, estimated)
    return float(np.mean((actual_array - estimated_array) ** 2))


def mape(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent.

    Queries with zero actual cardinality are handled with the common
    ``max(actual, 1)`` convention so the metric stays finite (the paper's
    workloads always include the query itself, so actual >= 1 in practice).
    """
    actual_array, estimated_array = _to_arrays(actual, estimated)
    denominator = np.maximum(actual_array, 1.0)
    return float(np.mean(np.abs(actual_array - estimated_array) / denominator) * 100.0)


def msle(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """Mean squared logarithmic error (the paper's training loss, §6.2)."""
    actual_array, estimated_array = _to_arrays(actual, estimated)
    return float(
        np.mean((np.log1p(np.maximum(actual_array, 0.0)) - np.log1p(np.maximum(estimated_array, 0.0))) ** 2)
    )


def mean_q_error(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """Mean of max(c/ĉ, ĉ/c); both sides floored at 1 to stay finite (paper §9.2)."""
    actual_array, estimated_array = _to_arrays(actual, estimated)
    safe_actual = np.maximum(actual_array, 1.0)
    safe_estimated = np.maximum(estimated_array, 1.0)
    ratios = np.maximum(safe_actual / safe_estimated, safe_estimated / safe_actual)
    return float(np.mean(ratios))


def monotonicity_violation_rate(estimates_by_threshold: Sequence[Sequence[float]]) -> float:
    """Fraction of adjacent threshold pairs where the estimate decreases.

    ``estimates_by_threshold[i][j]`` is the estimate for query ``j`` at the
    ``i``-th threshold (thresholds in increasing order).  A perfectly monotone
    estimator scores 0.0.
    """
    matrix = np.asarray(estimates_by_threshold, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if matrix.shape[0] < 2:
        return 0.0
    decreases = matrix[1:] < matrix[:-1] - 1e-9
    return float(np.mean(decreases))


@dataclass
class AccuracyReport:
    """Bundle of the three headline accuracy metrics for one model/dataset pair."""

    mse: float
    mape: float
    mean_q_error: float

    @classmethod
    def from_predictions(cls, actual: Sequence[float], estimated: Sequence[float]) -> "AccuracyReport":
        return cls(
            mse=mse(actual, estimated),
            mape=mape(actual, estimated),
            mean_q_error=mean_q_error(actual, estimated),
        )

    def as_dict(self) -> Dict[str, float]:
        return {"mse": self.mse, "mape": self.mape, "mean_q_error": self.mean_q_error}
