"""repro — reproduction of "Monotonic Cardinality Estimation of Similarity Selection:
A Deep Learning Approach" (SIGMOD 2020).

Public API highlights
---------------------
* :class:`repro.core.CardNetEstimator` — the CardNet / CardNet-A estimator.
* :mod:`repro.datasets` — synthetic datasets standing in for the paper's corpora.
* :mod:`repro.workloads` — query workload and label generation.
* :mod:`repro.baselines` — every estimator the paper compares against.
* :mod:`repro.optimizer` — the GPH allocation DP the engine's planner calls, and
  the §9.11 case-study workload and plan-quality report.
* :mod:`repro.serving` — registry + micro-batching service + curve cache.
* :mod:`repro.engine` — end-to-end query engine (plan → execute → feedback).
* :mod:`repro.sharding` — horizontal scale-out: partitioned exact selection
  and per-shard serving endpoints merged by curve summation.
* :mod:`repro.store` — versioned engine snapshots and warm-start restore.
* :mod:`repro.runtime` — two no-ops the e2e harness calls; the library spawns
  no threads and records its metrics in the serving telemetry's registry.
* :mod:`repro.obs` — observability: span traces, fixed-bucket histogram
  metrics with Prometheus/JSON exposition, and ``Engine.explain_analyze``.
"""

from .core import CardinalityEstimator, CardNet, CardNetConfig, CardNetEstimator
from .datasets import DEFAULT_DATASETS, load_dataset
from .engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from .metrics import AccuracyReport, mape, mean_q_error, mse
from .obs import (
    MetricsRegistry,
    Span,
    enable_tracing,
    span,
    start_trace,
    tracing_enabled,
)
from .runtime import Runtime
from .serving import CurveCache, EstimationService, EstimatorRegistry
from .sharding import ShardedSelector
from .store import load_engine, save_engine
from .workloads import Workload, build_workload

__version__ = "2.0.0"

__all__ = [
    "CardNet",
    "CardNetConfig",
    "CardNetEstimator",
    "CardinalityEstimator",
    "EstimationService",
    "EstimatorRegistry",
    "CurveCache",
    "SimilarityQueryEngine",
    "SimilarityPredicate",
    "ConjunctiveQuery",
    "ShardedSelector",
    "Runtime",
    "save_engine",
    "load_engine",
    "load_dataset",
    "DEFAULT_DATASETS",
    "build_workload",
    "Workload",
    "AccuracyReport",
    "mse",
    "mape",
    "mean_q_error",
    "MetricsRegistry",
    "Span",
    "enable_tracing",
    "span",
    "start_trace",
    "tracing_enabled",
    "__version__",
]
