"""Serving layer: estimator registry, micro-batching service, and curve cache.

Production-style front end over the batch-first estimator stack: many
datasets/distance functions register behind one :class:`EstimationService`
endpoint, incoming requests are micro-batched per estimator, and answers come
from an LRU cache of monotone cardinality curves (one cached curve answers
every threshold for that record).
"""

from .cache import CurveCache
from .registry import (
    DEFAULT_CURVE_RESOLUTION,
    EstimatorRegistry,
    RegisteredEstimator,
    default_record_key,
    resolve_curve_grid,
)
from .service import EstimationService
from .telemetry import EndpointStats, ServingTelemetry, q_error

__all__ = [
    "CurveCache",
    "EstimatorRegistry",
    "RegisteredEstimator",
    "default_record_key",
    "DEFAULT_CURVE_RESOLUTION",
    "resolve_curve_grid",
    "EstimationService",
    "ServingTelemetry",
    "EndpointStats",
    "q_error",
]
