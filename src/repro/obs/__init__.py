"""repro.obs — tracing, metrics, monitoring, and EXPLAIN ANALYZE.

Observability substrate for the whole stack:

* :mod:`repro.obs.trace` — per-request span trees that follow a query through
  worker threads and forked process-backend children (child subtrees ride
  back with task results and re-parent in the submitter's tree);
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket mergeable
  histograms with Prometheus/JSON exposition; ``ServingTelemetry`` keeps its
  one ledger in a registry and serves its flat counters as views of it;
* :mod:`repro.obs.explain` — ``Engine.explain_analyze`` report structures
  pairing estimated vs actual cardinality per predicate, plus a bounded
  slow-query ring buffer;
* :mod:`repro.obs.timeseries` — ring-buffer series scraped from registries by
  a background :class:`Scraper`, with windowed rollups (rate, increase,
  windowed percentiles from histogram-bucket deltas);
* :mod:`repro.obs.slo` / :mod:`repro.obs.alerts` — declarative objectives
  evaluated as multi-window burn rates, and a deterministic
  pending→firing→resolved alert state machine over them;
* :mod:`repro.obs.monitor` — the :class:`MonitoringHub` behind
  ``engine.monitor()`` and the ``health_report()`` renderer.

Tracing (``REPRO_TRACE``) is opt-in; metrics always record.  What tracing
costs is ``trace.overhead_share`` of a ``benchmarks/e2e/run.py --trace 1``
run; a live monitoring hub is timed by
``benchmarks/bench_monitoring_overhead.py`` (a non-blocking reproduction).
"""

from .alerts import ALERT_KINDS, AlertManager, AlertRule, AlertStatus
from .explain import ExplainAnalyzeReport, PredicateAnalysis, SlowQueryLog
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
from .monitor import HealthReport, MonitoringHub, build_health_report
from .slo import SLO_KINDS, SLObjective, SLOEvaluator, SLOStatus
from .timeseries import MONITOR_POOL, Scraper, Series, TimeSeriesStore
from .trace import (
    NOOP_SPAN,
    Span,
    activate,
    capture_context,
    current_span,
    disable_tracing,
    enable_tracing,
    span,
    start_trace,
    tracing_enabled,
)

__all__ = [
    "ALERT_KINDS",
    "AlertManager",
    "AlertRule",
    "AlertStatus",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_Q_ERROR_BUCKETS",
    "ExplainAnalyzeReport",
    "Gauge",
    "HealthReport",
    "Histogram",
    "MONITOR_POOL",
    "MetricsRegistry",
    "MonitoringHub",
    "NOOP_SPAN",
    "PredicateAnalysis",
    "SLO_KINDS",
    "SLOEvaluator",
    "SLOStatus",
    "SLObjective",
    "Scraper",
    "Series",
    "SlowQueryLog",
    "Span",
    "TimeSeriesStore",
    "activate",
    "bucket_quantile",
    "build_health_report",
    "capture_context",
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
