"""Time-series telemetry: ring-buffer series scraped from metric registries.

PR 7's :class:`~repro.obs.metrics.MetricsRegistry` answers "what is the
counter *now*"; this module adds the time dimension the SLO layer and the
workload optimizer need: a :class:`Series` is a fixed-capacity ring buffer of
``(timestamp, value)`` samples, a :class:`TimeSeriesStore` holds one series
per metric key, and a :class:`Scraper` periodically samples whole registries
into the store from a ``repro.runtime`` worker pool (never a raw thread —
RPR001: the sampling loop is a long-lived pool task paced by an Event wait).

Rollups are *windowed* and reset-aware: ``rate()``/``increase()`` over
counter series tolerate child restarts, and windowed p50/p95/p99 derive from
histogram-*bucket deltas* between the window's first and last cumulative
snapshots — the ``histogram_quantile(rate(...))`` scheme.  Empty windows
answer ``None`` loudly, never a fabricated 0.0.

Series states export/merge exactly like PR 7's metrics (plain dicts, newest
samples win the capacity), and every class carries snapshot hooks so scraped
history survives ``save_engine``/``load_engine``.  All timestamps ride the
injected clock (``time.monotonic`` by default — RPR004), so tests drive
scraping and rollups deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, bucket_quantile

#: Runtime pool name the background monitoring loop (the scraper) runs on.
#: Kept tiny: the loop occupies one worker for its lifetime.
MONITOR_POOL = "monitor"

#: Default ring capacity: at the default 1 s cadence, ~17 minutes of history.
DEFAULT_SERIES_CAPACITY = 1024

#: Kinds a series can hold; histogram samples are cumulative bucket snapshots.
SERIES_KINDS = ("gauge", "counter", "histogram")


def _histogram_sample(exported: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a histogram export into the stored cumulative snapshot."""
    return {
        "counts": [int(c) for c in exported["counts"]],
        "sum": float(exported["sum"]),
        "count": int(exported["count"]),
        "max": float(exported["max"]),
    }


class Series:
    """One metric's ring buffer of ``(timestamp, value)`` samples.

    ``kind`` fixes the sample shape: floats for gauges/counters, cumulative
    bucket snapshots (``{"counts", "sum", "count", "max"}``) for histograms.
    Rollups never mutate; all mutation (append/merge/prune/downsample) holds
    the series lock.
    """

    def __init__(
        self,
        key: str,
        kind: str,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r}; choose from {SERIES_KINDS}")
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (windowed rollups need deltas)")
        if kind == "histogram" and not buckets:
            raise ValueError("histogram series need their bucket boundaries")
        self.key = key
        self.kind = kind
        self.capacity = int(capacity)
        self.buckets: Optional[List[float]] = (
            None if buckets is None else [float(b) for b in buckets]
        )
        self._times: Deque[float] = deque(maxlen=self.capacity)
        self._values: Deque[Any] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def append(self, now: float, value: Any) -> None:
        """Record one sample at timestamp ``now`` (monotonic clock domain)."""
        if self.kind == "histogram":
            if [float(b) for b in value.get("buckets", self.buckets)] != self.buckets:
                raise ValueError(
                    f"series {self.key!r}: bucket boundaries changed mid-stream"
                )
            sample = _histogram_sample(value)
        else:
            sample = float(value)
        with self._lock:
            self._times.append(float(now))
            self._values.append(sample)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._times)

    def points(self) -> List[Tuple[float, Any]]:
        """Oldest-first copy of every retained ``(timestamp, value)``."""
        with self._lock:
            return list(zip(self._times, self._values))

    def latest(self) -> Optional[Tuple[float, Any]]:
        with self._lock:
            if not self._times:
                return None
            return self._times[-1], self._values[-1]

    def window_points(self, window: float, now: float) -> List[Tuple[float, Any]]:
        """Samples with ``now - window <= t <= now``, oldest first."""
        lo = now - window
        with self._lock:
            return [
                (t, v) for t, v in zip(self._times, self._values) if lo <= t <= now
            ]

    # ------------------------------------------------------------------ #
    # Windowed rollups (None on empty/underfilled windows — loudly no data)
    # ------------------------------------------------------------------ #
    def increase(self, window: float, now: float) -> Optional[float]:
        """Counter growth across the window; reset-aware; ``None`` without
        at least two samples to form a delta."""
        if self.kind == "histogram":
            delta = self.delta(window, now)
            return None if delta is None else float(delta["count"])
        pts = self.window_points(window, now)
        if len(pts) < 2:
            return None
        first, last = pts[0][1], pts[-1][1]
        delta = last - first
        if delta < 0:  # the producer restarted; its whole count is new growth
            delta = last
        return float(delta)

    def rate(self, window: float, now: float) -> Optional[float]:
        """Per-second :meth:`increase` over the window's observed span."""
        pts = self.window_points(window, now)
        if len(pts) < 2:
            return None
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return None
        grown = self.increase(window, now)
        return None if grown is None else grown / span

    def delta(self, window: float, now: float) -> Optional[Dict[str, Any]]:
        """Histogram bucket-count growth across the window.

        Returns ``{"counts", "sum", "count"}`` deltas, or ``None`` without two
        samples.  A counter reset (any bucket shrank) treats the first sample
        as zero — the restarted producer's snapshot is all new growth.
        """
        if self.kind != "histogram":
            raise TypeError(f"series {self.key!r} is a {self.kind}, not a histogram")
        pts = self.window_points(window, now)
        if len(pts) < 2:
            return None
        first, last = pts[0][1], pts[-1][1]
        counts = [b - a for a, b in zip(first["counts"], last["counts"])]
        if any(c < 0 for c in counts):
            return {
                "counts": list(last["counts"]),
                "sum": last["sum"],
                "count": last["count"],
            }
        return {
            "counts": counts,
            "sum": last["sum"] - first["sum"],
            "count": last["count"] - first["count"],
        }

    def windowed_quantile(self, q: float, window: float, now: float) -> Optional[float]:
        """Bucket-interpolated quantile of the *window's* observations.

        ``None`` when the window holds no growth (empty window) — never a
        fabricated 0.0.  The overflow bucket answers the highest finite
        boundary: a windowed max is unknowable from cumulative snapshots.
        """
        delta = self.delta(window, now)
        if delta is None or delta["count"] <= 0:
            return None
        assert self.buckets is not None
        return bucket_quantile(self.buckets, delta["counts"], q, overflow=self.buckets[-1])

    def windowed_percentiles(self, window: float, now: float) -> Dict[str, Optional[float]]:
        return {
            "p50": self.windowed_quantile(0.50, window, now),
            "p95": self.windowed_quantile(0.95, window, now),
            "p99": self.windowed_quantile(0.99, window, now),
        }

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def prune(self, min_time: float) -> int:
        """Drop samples older than ``min_time``; returns how many went."""
        dropped = 0
        with self._lock:
            while self._times and self._times[0] < min_time:
                self._times.popleft()
                self._values.popleft()
                dropped += 1
        return dropped

    def downsample(self, factor: int) -> int:
        """Keep every ``factor``-th sample (and always the newest).

        The coarse long-horizon view: a series scraped at 1 s keeps ~17 min
        at default capacity; downsampling by 4 stretches that to ~70 min at
        4 s resolution.  Returns how many samples were dropped.
        """
        if factor < 2:
            return 0
        with self._lock:
            n = len(self._times)
            if n < 3:
                return 0
            keep = [i for i in range(n) if i % factor == 0 or i == n - 1]
            times = [self._times[i] for i in keep]
            values = [self._values[i] for i in keep]
            self._times = deque(times, maxlen=self.capacity)
            self._values = deque(values, maxlen=self.capacity)
            return n - len(keep)

    # ------------------------------------------------------------------ #
    # Cross-process / cross-store merge (the PR 7 metrics discipline)
    # ------------------------------------------------------------------ #
    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "key": self.key,
                "kind": self.kind,
                "capacity": self.capacity,
                "buckets": None if self.buckets is None else list(self.buckets),
                "points": [[t, v] for t, v in zip(self._times, self._values)],
            }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Interleave an exported series by timestamp; newest samples win
        the capacity.  Kind/bucket mismatches refuse loudly."""
        if state["kind"] != self.kind:
            raise ValueError(
                f"cannot merge series {self.key!r}: kind {state['kind']!r} != {self.kind!r}"
            )
        incoming_buckets = state.get("buckets")
        if self.kind == "histogram" and [
            float(b) for b in incoming_buckets or ()
        ] != self.buckets:
            raise ValueError(
                f"cannot merge series {self.key!r}: bucket boundaries differ"
            )
        incoming = [(float(t), v) for t, v in state.get("points", ())]
        with self._lock:
            merged = sorted(
                list(zip(self._times, self._values)) + incoming, key=lambda p: p[0]
            )
            merged = merged[-self.capacity :]
            self._times = deque((t for t, _ in merged), maxlen=self.capacity)
            self._values = deque((v for _, v in merged), maxlen=self.capacity)

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store): samples persist, the lock does not.
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        return self.export_state()

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.key = state["key"]
        self.kind = state["kind"]
        self.capacity = int(state["capacity"])
        buckets = state.get("buckets")
        self.buckets = None if buckets is None else [float(b) for b in buckets]
        points = state.get("points", ())
        self._times = deque((float(t) for t, _ in points), maxlen=self.capacity)
        self._values = deque((v for _, v in points), maxlen=self.capacity)
        self._lock = threading.Lock()


class TimeSeriesStore:
    """One :class:`Series` per metric key, with registry scraping built in."""

    def __init__(
        self,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        retention_seconds: Optional[float] = None,
    ) -> None:
        self.capacity = int(capacity)
        #: Samples older than ``now - retention_seconds`` are pruned at each
        #: scrape; ``None`` keeps everything the ring capacity allows.
        self.retention_seconds = retention_seconds
        self._series: Dict[str, Series] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Get-or-create / lookup
    # ------------------------------------------------------------------ #
    def series(
        self, key: str, kind: str, buckets: Optional[Sequence[float]] = None
    ) -> Series:
        with self._lock:
            existing = self._series.get(key)
            if existing is not None:
                if existing.kind != kind:
                    raise TypeError(
                        f"series {key!r} is a {existing.kind}, requested {kind}"
                    )
                return existing
            created = Series(key, kind, capacity=self.capacity, buckets=buckets)
            self._series[key] = created
            return created

    def get(self, key: str) -> Optional[Series]:
        with self._lock:
            return self._series.get(key)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._series

    # ------------------------------------------------------------------ #
    # Scraping
    # ------------------------------------------------------------------ #
    def sample_registry(self, registry: MetricsRegistry, now: float) -> int:
        """Append one sample per metric in ``registry``; returns how many."""
        sampled = 0
        for metric in registry.collect():
            exported = metric.export()
            kind = exported["type"]
            if kind == "histogram":
                series = self.series(metric.key, kind, buckets=exported["buckets"])
                series.append(now, exported)
            else:
                self.series(metric.key, kind).append(now, exported["value"])
            sampled += 1
        if self.retention_seconds is not None:
            self.prune(now - float(self.retention_seconds))
        return sampled

    # ------------------------------------------------------------------ #
    # Rollup conveniences (delegate to the series; None when absent)
    # ------------------------------------------------------------------ #
    def rate(self, key: str, window: float, now: float) -> Optional[float]:
        series = self.get(key)
        return None if series is None else series.rate(window, now)

    def increase(self, key: str, window: float, now: float) -> Optional[float]:
        series = self.get(key)
        return None if series is None else series.increase(window, now)

    def windowed_quantile(
        self, key: str, q: float, window: float, now: float
    ) -> Optional[float]:
        series = self.get(key)
        return None if series is None else series.windowed_quantile(q, window, now)

    def latest(self, key: str) -> Optional[Tuple[float, Any]]:
        series = self.get(key)
        return None if series is None else series.latest()

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def prune(self, min_time: float) -> int:
        with self._lock:
            all_series = list(self._series.values())
        return sum(series.prune(min_time) for series in all_series)

    def downsample(self, factor: int) -> int:
        with self._lock:
            all_series = list(self._series.values())
        return sum(series.downsample(factor) for series in all_series)

    # ------------------------------------------------------------------ #
    # Cross-process / cross-store merge
    # ------------------------------------------------------------------ #
    def export_state(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            all_series = list(self._series.values())
        return {series.key: series.export_state() for series in all_series}

    def merge_state(self, state: Mapping[str, Mapping[str, Any]]) -> None:
        for key, exported in state.items():
            series = self.series(key, exported["kind"], buckets=exported.get("buckets"))
            series.merge_state(exported)

    def merge(self, other: "TimeSeriesStore") -> None:
        self.merge_state(other.export_state())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump: every series' points, oldest first."""
        return {
            key: {
                "kind": exported["kind"],
                "points": exported["points"],
            }
            for key, exported in sorted(self.export_state().items())
        }

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store) — history persists, the lock does not.
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class Scraper:
    """Periodic registry → store sampler running as one long-lived pool task.

    The loop is paced by ``Event.wait(interval)`` on a worker of the
    ``monitor`` pool — drain/shutdown, telemetry, and snapshot drop/rebuild
    apply like any other runtime work (RPR001), and ``stop()`` resolves the
    task's handle so shutdown is observable.  ``clock=None`` reads
    ``time.monotonic()``; tests inject a deterministic clock and drive
    :meth:`scrape_once` directly.

    ``collectors`` run before each sample (e.g. the hub's pool-gauge export),
    ``on_tick(now)`` runs after (SLO/alert evaluation).  A failing collector,
    source, or tick is counted (``failures`` + the
    ``repro_scrape_failures_total`` counter in the first source registry) and
    never kills the loop.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        interval: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.store = store
        self.interval = float(interval)
        self._clock = clock
        self._sources: List[MetricsRegistry] = []
        self._collectors: List[Callable[[], None]] = []
        self.on_tick: Optional[Callable[[float], None]] = None
        self.ticks = 0
        self.failures = 0
        self._stop_event: Optional[threading.Event] = None
        self._pool: Optional[Any] = None
        self._handle: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def add_source(self, registry: MetricsRegistry) -> None:
        if registry not in self._sources:
            self._sources.append(registry)

    def add_collector(self, collector: Callable[[], None]) -> None:
        self._collectors.append(collector)

    def _now(self) -> float:
        clock = self._clock
        return time.monotonic() if clock is None else clock()

    # ------------------------------------------------------------------ #
    # One tick
    # ------------------------------------------------------------------ #
    def scrape_once(self, now: Optional[float] = None) -> float:
        """Collect gauges, sample every source, fire ``on_tick``; returns
        the tick's timestamp (injected or read from the clock)."""
        if now is None:
            now = self._now()
        for collector in list(self._collectors):
            try:
                collector()
            except Exception:
                self._count_failure()
        for registry in list(self._sources):
            try:
                self.store.sample_registry(registry, now)
            except Exception:
                self._count_failure()
        self.ticks += 1
        hook = self.on_tick
        if hook is not None:
            try:
                hook(now)
            except Exception:
                self._count_failure()
        return now

    def _count_failure(self) -> None:
        self.failures += 1
        if self._sources:
            self._sources[0].counter(
                "repro_scrape_failures_total",
                description="scrape ticks whose collector/sample/on_tick raised",
            ).inc()

    # ------------------------------------------------------------------ #
    # Background loop (a long-lived task on the monitor pool)
    # ------------------------------------------------------------------ #
    def _run(self, stop_event: threading.Event) -> int:
        ticks_at_start = self.ticks
        while not stop_event.wait(self.interval):
            self.scrape_once()
        return self.ticks - ticks_at_start

    def start(self, runtime: Any, pool_name: str = MONITOR_POOL) -> None:
        """Begin scraping every ``interval`` seconds on ``runtime``'s monitor
        pool.  Idempotent while running.  The pool is widened past any other
        long-lived monitoring loop already parked on it (each loop pins one
        worker for its lifetime)."""
        if self._handle is not None:
            return
        pool = runtime.pool(pool_name, num_workers=1)
        stats = pool.stats()
        pool.ensure_workers(stats["active"] + stats["queue_depth"] + 1)
        self._stop_event = threading.Event()
        # Pool shutdown sets the event too, so a forgotten stop() cannot
        # leave the loop pinning a worker the shutdown join waits on.
        register = getattr(pool, "register_stop_event", None)
        if register is not None:
            register(self._stop_event)
        self._pool = pool
        self._handle = pool.submit(self._run, self._stop_event)

    def stop(self, timeout: Optional[float] = 5.0) -> Optional[int]:
        """Signal the loop and wait for its task to resolve; returns how many
        ticks the background loop ran (``None`` if it never started)."""
        handle, event, pool = self._handle, self._stop_event, self._pool
        if handle is None:
            return None
        self._handle = None
        self._stop_event = None
        self._pool = None
        if event is not None:
            event.set()
            unregister = getattr(pool, "unregister_stop_event", None)
            if unregister is not None:
                unregister(event)
        return handle.result(timeout)

    @property
    def running(self) -> bool:
        return self._handle is not None

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store): configuration persists, the live loop
    # (its Event + task handle) does not — a running scraper refuses, like
    # a Runtime with in-flight tasks.
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        if self._handle is not None:
            raise RuntimeError(
                "cannot snapshot a running Scraper; stop() it first "
                "(the monitor pool task would be stranded)"
            )
        state = dict(self.__dict__)
        state.pop("_stop_event", None)
        state.pop("_handle", None)
        state.pop("_pool", None)
        # The default clock is time.monotonic read lazily (None here); an
        # injected clock is a caller-owned callable the codec may refuse —
        # drop it and restore to the default, which is always correct after
        # a process restart anyway (monotonic domains never survive one).
        state.pop("_clock", None)
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._clock = None
        self._stop_event = None
        self._handle = None
        self._pool = None
