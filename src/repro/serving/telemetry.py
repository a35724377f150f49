"""Serving telemetry: one ledger, kept in a metrics registry.

Every serving event — a request's curve-cache hits/misses, a micro-batch's
size, a request's latency, the feedback loop's estimated-vs-actual
observations and drift crossings — is recorded once, in an
``endpoint``-labelled metric of ``telemetry.metrics`` (``_LEDGER``;
``docs/metrics_catalog.md``).  That registry is the only state: snapshots
persist it, ``to_prometheus()`` exposes it.

``endpoint(name)``, ``total``, ``snapshot()`` and ``to_prometheus()`` are views
computed from it when called: :class:`EndpointStats` values, not live objects.
``total`` sums every endpoint.  Every metric takes its own lock, so client
threads and the feedback loop lose no increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Any, Dict, Optional

from ..obs import metrics

#: The ledger: metric name -> (histogram buckets or ``None`` for a counter, the
#: :class:`EndpointStats` fields its value — or a histogram's count, sum, max —
#: is read back into (``None``: not reported), HELP text).  Every row is
#: labelled by ``endpoint``.
_LEDGER = {
    "repro_requests_total": (None, ("requests",), "estimation requests per endpoint"),
    "repro_cache_hits_total": (None, ("cache_hits",), "curve-cache hits per endpoint"),
    "repro_cache_misses_total": (None, ("cache_misses",), "curve-cache misses per endpoint"),
    "repro_micro_batch_records": (
        metrics.DEFAULT_BATCH_SIZE_BUCKETS,
        ("batches", "batched_records", "max_batch_size"), "records per model micro-batch"),
    "repro_request_latency_seconds": (
        metrics.DEFAULT_LATENCY_BUCKETS,
        (None, "latency_seconds", "max_latency_seconds"), "recorded request latency per endpoint"),
    "repro_q_error": (
        metrics.DEFAULT_Q_ERROR_BUCKETS,
        ("observations", "q_error_sum", "q_error_max"), "estimated-vs-actual q-error per endpoint"),
    "repro_drift_events_total": (None, ("drift_events",), "drift-threshold crossings per endpoint"),
}

#: Attributes ``EndpointStats.snapshot()`` reports under their own names.
_SNAPSHOT_KEYS = (
    "requests", "cache_hits", "cache_misses", "hit_rate", "batches", "mean_batch_size",
    "max_batch_size", "latency_seconds", "max_latency_seconds",
    "observations", "mean_q_error", "drift_events",
)


def q_error(estimated: float, actual: float) -> float:
    """``max(c/ĉ, ĉ/c)`` with both sides floored at 1 (the paper's §9.2
    convention, matching :func:`repro.metrics.mean_q_error` exactly)."""
    safe_actual = max(float(actual), 1.0)
    safe_estimated = max(float(estimated), 1.0)
    return max(safe_actual / safe_estimated, safe_estimated / safe_actual)


@dataclass(frozen=True)
class EndpointStats:
    """One endpoint's readings at the moment they were asked for."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    batched_records: int = 0
    max_batch_size: int = 0
    latency_seconds: float = 0.0
    #: Largest single recorded duration — the straggler a sum cannot show.
    max_latency_seconds: float = 0.0
    observations: int = 0
    q_error_sum: float = 0.0
    q_error_max: float = 0.0
    drift_events: int = 0
    #: Request-latency ``p50``/``p95``/``p99`` (``None`` until one is recorded).
    latency_percentiles: Optional[Dict[str, float]] = None

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_records / self.batches if self.batches else 0.0

    @property
    def mean_q_error(self) -> float:
        """Online mean q-error over every observation reported so far."""
        return self.q_error_sum / self.observations if self.observations else 0.0

    def snapshot(self) -> Dict[str, float]:
        report = {key: getattr(self, key) for key in _SNAPSHOT_KEYS}
        mean_latency = self.latency_seconds / self.requests if self.requests else 0.0
        report.update(mean_latency_seconds=mean_latency, max_q_error=self.q_error_max)
        report.update({f"latency_{k}": v for k, v in (self.latency_percentiles or {}).items()})
        return report


def _fold(into: Dict[str, Any], state: Dict[str, Any]) -> None:
    """Add one exported ledger metric to a field dict (sums add, maxima take the larger)."""
    fields = _LEDGER[state["name"]][1]
    readings = ("count", "sum", "max") if len(fields) == 3 else ("value",)
    for field, reading, combine in zip(fields, readings, (add, add, max)):
        if field is not None:
            zero = getattr(EndpointStats, field)  # 0 or 0.0: counts are ints, counters floats
            into[field] = combine(into.get(field, zero), type(zero)(state[reading]))
    if state["name"] == "repro_request_latency_seconds" and state["count"]:
        if "latency" not in into:
            into["latency"] = metrics.Histogram(state["name"], buckets=state["buckets"])
        into["latency"].merge_export(state)


class ServingTelemetry:
    """Recorder into ``self.metrics`` and reader of the flat view (module docstring)."""

    def __init__(self) -> None:
        #: The ledger: the one registry the library records into.
        self.metrics = metrics.MetricsRegistry()
        #: (metric name, endpoint) -> the resolved metric: get-or-create costs
        #: a key format and a registry lock, recording is per request.
        self._handles: Dict[Any, Any] = {}

    def _metric(self, name: str, endpoint: str) -> Any:
        """Metric ``name`` of ``endpoint``, created on first use."""
        metric = self._handles.get((name, endpoint))
        if metric is None:
            buckets, _, description = _LEDGER[name]
            labels = {"endpoint": endpoint}
            if buckets is None:
                metric = self.metrics.counter(name, labels, description)
            else:
                metric = self.metrics.histogram(name, labels, description, buckets)
            # Benign race: both writers cache the same registry-owned metric.
            self._handles[(name, endpoint)] = metric
        return metric

    def record_requests(self, name: str, count: int, hits: int, misses: int) -> None:
        self._metric("repro_requests_total", name).inc(count)
        if hits:
            self._metric("repro_cache_hits_total", name).inc(hits)
        if misses:
            self._metric("repro_cache_misses_total", name).inc(misses)

    def record_batch(self, name: str, batch_size: int) -> None:
        self._metric("repro_micro_batch_records", name).observe(batch_size)

    def record_latency(self, name: str, seconds: float) -> None:
        self._metric("repro_request_latency_seconds", name).observe(seconds)

    def record_observation(self, name: str, estimated: float, actual: float) -> float:
        """Feed one estimated-vs-actual pair into the drift stats; returns its
        q-error so feedback monitors need not recompute it for their windows."""
        error = q_error(estimated, actual)
        self._metric("repro_q_error", name).observe(error)
        return error

    def record_drift(self, name: str) -> None:
        """Count one drift-threshold crossing (cache flush + revalidation)."""
        self._metric("repro_drift_events_total", name).inc()

    def _stats(self) -> Dict[str, EndpointStats]:
        """The views, computed now: ``total``, then each endpoint."""
        entries: Dict[str, Dict[str, Any]] = {"total": {}}
        for metric in self.metrics.collect():
            if metric.name in _LEDGER and "endpoint" in metric.labels:
                state = metric.export()  # one consistent read, under the metric's lock
                for name in (metric.labels["endpoint"], "total"):
                    _fold(entries.setdefault(name, {}), state)
        stats = {}
        for name, fields in [("total", entries.pop("total")), *sorted(entries.items())]:
            latency = fields.pop("latency", None)
            percentiles = latency and latency.percentiles()
            stats[name] = EndpointStats(**fields, latency_percentiles=percentiles)
        return stats

    def endpoint(self, name: str) -> EndpointStats:
        return self._stats().get(name, EndpointStats())

    @property
    def total(self) -> EndpointStats:
        """Sum over every endpoint."""
        return self._stats()["total"]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {name: stats.snapshot() for name, stats in self._stats().items()}

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.metrics.to_prometheus()
