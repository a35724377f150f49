"""Error metrics for cardinality estimation."""

from .errors import (
    AccuracyReport,
    mape,
    mean_q_error,
    monotonicity_violation_rate,
    mse,
    msle,
)

__all__ = [
    "mse",
    "mape",
    "msle",
    "mean_q_error",
    "monotonicity_violation_rate",
    "AccuracyReport",
]
