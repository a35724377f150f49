"""Metrics: counters and fixed-bucket mergeable histograms.

A :class:`Histogram` keeps one count per fixed bucket boundary plus
a running sum/count/max — O(1) memory however many observations arrive, p50 /
p95 / p99 derivable by bucket interpolation, and two histograms with the same
buckets merge by adding counts (the serving telemetry folds per-endpoint
latency histograms into its totals that way).

Exposition comes in two shapes: :meth:`MetricsRegistry.to_prometheus` (text
format 0.0.4 — counters and cumulative ``_bucket``/``_sum``/``_count``
histogram series) and :meth:`MetricsRegistry.to_dict` (JSON with derived
quantiles), so the same registry feeds a scrape endpoint and the
benchmark artifacts.

Metric identity is ``name`` + sorted label pairs.  Every mutator takes the
metric's own lock, so client threads and the serving path can all record
into one registry; a snapshot (``repro.store``) writes each lock as a node
with no state and restores a fresh one.

The library records into one registry only: the serving telemetry's
(:mod:`repro.serving.telemetry`), which an engine reaches as
``engine.service.telemetry.metrics``.  There is no process-wide registry.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


#: Default latency buckets (seconds): sub-millisecond through 10 s, roughly
#: logarithmic — the Prometheus convention, wide enough for a straggler to
#: land in a bucket of its own instead of vanishing into a sum.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default q-error buckets: 1 is a perfect estimate; the tail is the story.
DEFAULT_Q_ERROR_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0, 256.0)

#: Default micro-batch size buckets (records per model call): powers of two.
DEFAULT_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


def bucket_quantile(
    buckets: Sequence[float],
    counts: Sequence[int],
    q: float,
    overflow: Optional[float] = None,
) -> float:
    """Bucket-interpolated quantile (the ``histogram_quantile`` scheme).

    ``counts`` are non-cumulative per-bucket observation counts (one extra
    trailing overflow bucket).  Within the located bucket the distribution is
    assumed uniform; a rank landing in the overflow bucket answers
    ``overflow`` (a histogram passes its observed max; the default is the
    highest finite boundary).  Zero
    observations answer ``nan`` — loudly no data, never a fabricated 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return float("nan")
    if overflow is None:
        overflow = float(buckets[-1])
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(buckets):
                return float(overflow)
            upper = buckets[index]
            lower = buckets[index - 1] if index > 0 else 0.0
            within = (rank - (cumulative - bucket_count)) / bucket_count
            return lower + (upper - lower) * min(max(within, 0.0), 1.0)
    return float(overflow)  # pragma: no cover - counts always reach rank


def metric_key(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """Canonical identity: ``name`` or ``name{k="v",...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared base: identity and a lock."""

    kind = "metric"

    def __init__(
        self, name: str, labels: Optional[Mapping[str, Any]] = None, description: str = ""
    ) -> None:
        self.name = name
        self.labels: Dict[str, str] = {k: str(v) for k, v in (labels or {}).items()}
        self.description = description
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, labels=None, description="") -> None:
        super().__init__(name, labels, description)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self.value += amount

    def export(self) -> Dict[str, Any]:
        with self._lock:
            return {"type": "counter", "name": self.name, "labels": dict(self.labels),
                    "description": self.description, "value": self.value}


class Histogram(_Metric):
    """Fixed-bucket histogram: O(1) memory, mergeable, quantile-derivable.

    ``buckets`` are ascending upper bounds; one implicit overflow bucket
    catches everything above the last boundary.  ``counts[i]`` is the number
    of observations with ``value <= buckets[i]`` exclusive of lower buckets
    (non-cumulative storage; exposition cumulates).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, labels, description)
        bounds = [float(b) for b in buckets]
        if not bounds or sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError("buckets must be non-empty, ascending, and distinct")
        self.buckets: List[float] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile (the ``histogram_quantile`` scheme).

        Within the located bucket the distribution is assumed uniform; the
        overflow bucket answers with the observed max (an upper bound the
        fixed boundaries cannot interpolate).  An empty histogram answers
        ``nan`` — loudly no data, never a fabricated 0.0.
        """
        with self._lock:
            return bucket_quantile(self.buckets, self.counts, q, overflow=self.max)

    def percentiles(self) -> Dict[str, float]:
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def export(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram", "name": self.name, "labels": dict(self.labels),
                "description": self.description, "buckets": list(self.buckets),
                "counts": list(self.counts), "sum": self.sum, "count": self.count,
                "max": self.max,
            }

    def merge_export(self, state: Mapping[str, Any]) -> None:
        if [float(b) for b in state["buckets"]] != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.key!r}: bucket boundaries differ"
            )
        with self._lock:
            for index, bucket_count in enumerate(state["counts"]):
                self.counts[index] += int(bucket_count)
            self.sum += float(state["sum"])
            self.count += int(state["count"])
            self.max = max(self.max, float(state["max"]))


class MetricsRegistry:
    """Get-or-create home for metrics, with exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Get-or-create
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name, labels, description, **kwargs) -> _Metric:
        key = metric_key(name, labels)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {key!r} is a {existing.kind}, requested {cls.kind}"
                    )
                return existing
            created = cls(name, labels=labels, description=description, **kwargs)
            self._metrics[key] = created
            return created

    def counter(self, name: str, labels=None, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, labels, description)

    def histogram(
        self, name: str, labels=None, description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, description, buckets=buckets
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def get(self, name: str, labels=None) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(metric_key(name, labels))

    def collect(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON export; histograms include mean + p50/p95/p99."""
        report: Dict[str, Dict[str, Any]] = {}
        for metric in self.collect():
            exported = metric.export()
            if isinstance(metric, Histogram):
                exported["mean"] = metric.mean
                exported.update(metric.percentiles())
            report[metric.key] = exported
        return report

    def to_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        seen_headers: set = set()
        for metric in self.collect():
            exported = metric.export()
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.description:
                    lines.append(f"# HELP {metric.name} {metric.description}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, bucket_count in zip(
                    exported["buckets"] + [float("inf")], exported["counts"]
                ):
                    cumulative += bucket_count
                    le = "+Inf" if bound == float("inf") else f"{bound:g}"
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_prom_labels(metric.labels, le=le)} {cumulative}"
                    )
                lines.append(
                    f"{metric.name}_sum{_prom_labels(metric.labels)} "
                    f"{exported['sum']:g}"
                )
                lines.append(
                    f"{metric.name}_count{_prom_labels(metric.labels)} "
                    f"{exported['count']}"
                )
            else:
                lines.append(
                    f"{metric.name}{_prom_labels(metric.labels)} {exported['value']:g}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(labels: Mapping[str, str], **extra: str) -> str:
    merged: List[Tuple[str, str]] = sorted({**labels, **extra}.items())
    if not merged:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in merged) + "}"
