"""repro.obs — tracing, metrics, EXPLAIN ANALYZE and the health report.

Observability substrate for the whole stack:

* :mod:`repro.obs.trace` — per-request span trees;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket mergeable
  histograms with Prometheus/JSON exposition; ``ServingTelemetry`` keeps its
  one ledger in a registry and serves its flat counters as views of it;
* :mod:`repro.obs.explain` — ``Engine.explain_analyze`` report structures
  pairing estimated vs actual cardinality per predicate, a bounded
  slow-query ring buffer, and the :class:`HealthReport` behind
  ``engine.health_report()``.

Tracing (``REPRO_TRACE``) is opt-in; metrics always record.  What tracing
costs is ``trace.overhead_share`` of a ``benchmarks/e2e/run.py --trace 1``
run.
"""

from .explain import (
    ExplainAnalyzeReport,
    HealthReport,
    PredicateAnalysis,
    SlowQueryLog,
    build_health_report,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_Q_ERROR_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    current_registry,
    default_registry,
    metric_key,
    use_registry,
)
from .trace import (
    NOOP_SPAN,
    Span,
    current_span,
    disable_tracing,
    enable_tracing,
    span,
    start_trace,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_Q_ERROR_BUCKETS",
    "ExplainAnalyzeReport",
    "Gauge",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PredicateAnalysis",
    "SlowQueryLog",
    "Span",
    "bucket_quantile",
    "build_health_report",
    "current_registry",
    "current_span",
    "default_registry",
    "disable_tracing",
    "enable_tracing",
    "metric_key",
    "span",
    "start_trace",
    "tracing_enabled",
    "use_registry",
]
