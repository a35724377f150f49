"""The MonitoringHub: scraper + SLOs + alerts behind one handle.

``engine.monitor()`` answers a live :class:`MonitoringHub`: a background
:class:`~repro.obs.timeseries.Scraper` on the runtime's ``monitor`` pool
samples the engine's telemetry registry (and the pool gauges it collects
each tick) into a :class:`~repro.obs.timeseries.TimeSeriesStore`; after each
scrape the hub evaluates its :class:`~repro.obs.slo.SLOEvaluator` and steps
the :class:`~repro.obs.alerts.AlertManager` at the same instant, so burn
rates, alert transitions, and the series they derive from never disagree
about "now".

Tests (and the deterministic paths in :func:`build_health_report`) drive
:meth:`MonitoringHub.tick` with an injected clock instead of starting the
background loop — same code path, explicit ``now`` (RPR004).

Snapshot discipline: a *running* hub refuses to snapshot (its loop is a live
pool task, exactly like a Runtime with in-flight work); ``engine.save``
therefore stops monitoring first.  Everything else — scraped history, SLO
definitions, alert states — persists and resumes when
``engine.monitor()`` is called again after restore.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .alerts import AlertManager, AlertRule, AlertStatus
from .metrics import MetricsRegistry, default_registry
from .slo import SLObjective, SLOEvaluator, SLOStatus
from .timeseries import Scraper, TimeSeriesStore


class MonitoringHub:
    """One handle over the continuous-monitoring stack for one engine."""

    def __init__(
        self,
        runtime: Optional[Any] = None,
        telemetry: Optional[Any] = None,
        registry: Optional[MetricsRegistry] = None,
        interval: float = 1.0,
        capacity: int = 1024,
        retention_seconds: Optional[float] = None,
        clock: Optional[Any] = None,
    ) -> None:
        if registry is None:
            telemetry_registry = getattr(telemetry, "metrics", None)
            registry = (
                telemetry_registry if telemetry_registry is not None else default_registry()
            )
        #: Where the background loop runs (``runtime.pool("monitor")``).
        self.runtime = runtime
        self.telemetry = telemetry
        #: The scraped registry; SLO/alert gauges record back into it, so the
        #: monitoring signals become series themselves on the next tick.
        self.registry = registry
        self.store = TimeSeriesStore(capacity=capacity, retention_seconds=retention_seconds)
        self.slos = SLOEvaluator(self.store, registry=registry)
        self.alerts = AlertManager(self.store, evaluator=self.slos, registry=registry)
        self.scraper = Scraper(self.store, interval=interval, clock=clock)
        self.scraper.add_source(registry)
        self.scraper.add_collector(self._collect_gauges)
        self.scraper.on_tick = self._evaluate
        self.last_slo_statuses: List[SLOStatus] = []
        self.last_alert_statuses: List[AlertStatus] = []

    # ------------------------------------------------------------------ #
    # Per-tick hooks (bound methods — snapshot-encodable, unlike closures)
    # ------------------------------------------------------------------ #
    def _collect_gauges(self) -> None:
        if self.runtime is not None:
            self.runtime.record_gauges(self.registry)

    def _evaluate(self, now: float) -> None:
        statuses = self.slos.evaluate(now)
        self.last_slo_statuses = statuses
        self.last_alert_statuses = self.alerts.evaluate(now, slo_statuses=statuses)

    # ------------------------------------------------------------------ #
    # Declarative wiring
    # ------------------------------------------------------------------ #
    def add_objective(self, objective: SLObjective) -> SLObjective:
        return self.slos.add(objective)

    def add_rule(self, rule: AlertRule) -> AlertRule:
        return self.alerts.add_rule(rule)

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def tick(self, now: Optional[float] = None) -> float:
        """One synchronous scrape+evaluate cycle; the deterministic path."""
        return self.scraper.scrape_once(now)

    def start(self) -> "MonitoringHub":
        """Start the background loop on the runtime's monitor pool."""
        if self.runtime is None:
            raise RuntimeError(
                "MonitoringHub has no runtime to run on; construct it with "
                "one (engine.monitor() wires the engine's)"
            )
        self.scraper.start(self.runtime)
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the scraper; history and states stay queryable."""
        self.scraper.stop(timeout)

    @property
    def running(self) -> bool:
        return self.scraper.running

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, Any]:
        return {
            "running": self.running,
            "ticks": self.scraper.ticks,
            "scrape_failures": self.scraper.failures,
            "series": len(self.store),
            "slos": [status.to_dict() for status in self.last_slo_statuses],
            "alerts": [status.to_dict() for status in self.last_alert_statuses],
            "firing": self.alerts.firing(),
        }

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store)
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        if self.running:
            raise RuntimeError(
                "cannot snapshot a running MonitoringHub; stop() it first "
                "(engine.save does this automatically)"
            )
        state = dict(self.__dict__)
        # Last evaluation results are derived views; history re-derives them.
        state["last_slo_statuses"] = []
        state["last_alert_statuses"] = []
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.last_slo_statuses = []
        self.last_alert_statuses = []


@dataclass
class HealthReport:
    """Engine-wide status: attributes, pools, service, SLOs, alerts.

    A plain-data pairing of everything ``health_report()`` gathered, with a
    JSON rendering (:meth:`to_dict`/:meth:`to_json`) for machines and a text
    rendering (:meth:`describe`) for terminals.
    """

    attributes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    pools: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    service: Dict[str, Any] = field(default_factory=dict)
    slow_queries: List[Dict[str, Any]] = field(default_factory=list)
    slow_query_threshold_seconds: float = 0.0
    slos: List[Dict[str, Any]] = field(default_factory=list)
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    firing: List[str] = field(default_factory=list)
    monitoring: Optional[Dict[str, Any]] = None
    feedback: Dict[str, Any] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """No alert currently firing (the one-bit summary)."""
        return not self.firing

    def to_dict(self) -> Dict[str, Any]:
        return {
            "healthy": self.healthy,
            "attributes": self.attributes,
            "pools": self.pools,
            "service": self.service,
            "slow_queries": self.slow_queries,
            "slow_query_threshold_seconds": self.slow_query_threshold_seconds,
            "slos": self.slos,
            "alerts": self.alerts,
            "firing": self.firing,
            "monitoring": self.monitoring,
            "feedback": self.feedback,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    def describe(self) -> str:
        """Terminal rendering: one section per subsystem."""
        lines = [f"ENGINE HEALTH  [{'OK' if self.healthy else 'ALERTING'}]"]
        if self.attributes:
            lines.append("  attributes:")
            for name, info in sorted(self.attributes.items()):
                shard_note = (
                    f" shards={info['shards']} fan_out={info.get('fan_out')}"
                    if info.get("shards")
                    else ""
                )
                lines.append(
                    f"    {name:<20} {info['distance']:<10} "
                    f"records={info['records']}{shard_note}"
                )
        if self.pools:
            lines.append("  pools:")
            for name, stats in sorted(self.pools.items()):
                lines.append(
                    f"    {name:<20} backend={stats['backend']} "
                    f"workers={stats['num_workers']} queue={stats['queue_depth']} "
                    f"active={stats['active']} completed={stats['completed']} "
                    f"failed={stats['failed']}"
                )
        cache = self.service.get("cache") or {}
        if cache:
            lines.append(
                f"  cache: size={cache.get('size')}/{cache.get('capacity')} "
                f"hit_rate={cache.get('hit_rate', 0.0):.3f} "
                f"evictions={cache.get('evictions')}"
            )
        if self.slos:
            lines.append("  slos:")
            for status in self.slos:
                burn = status.get("fast_burn")
                budget = status.get("budget_remaining")
                if status.get("no_data"):
                    detail = "no data"
                else:
                    burn_text = "-" if burn is None else f"{burn:.2f}x"
                    budget_text = "-" if budget is None else f"{budget:.1%}"
                    detail = f"burn={burn_text} budget={budget_text}"
                verdict = "BREACH" if status.get("breaching") else "ok"
                lines.append(f"    {status['name']:<24} {detail} [{verdict}]")
        if self.alerts:
            lines.append("  alerts:")
            for status in self.alerts:
                lines.append(f"    {status['name']:<24} {status['state']}")
        else:
            lines.append("  alerts: none configured")
        retained = len(self.slow_queries)
        lines.append(
            f"  slow queries: {retained} retained "
            f"(threshold {self.slow_query_threshold_seconds * 1e3:.0f} ms)"
        )
        return "\n".join(lines)


def build_health_report(engine: Any, now: Optional[float] = None) -> HealthReport:
    """Gather a :class:`HealthReport` from a live engine.

    Read-only against the monitoring state: SLOs re-evaluate with
    ``record=False`` and alerts report their *current* table without
    stepping the state machine — a health probe must never change what it
    observes.
    """
    report = HealthReport()
    for name in engine.catalog.names():
        binding = engine.catalog.get(name)
        selector = binding.selector
        info: Dict[str, Any] = {
            "records": len(binding.records),
            "distance": binding.distance.name,
            "sharded": bool(binding.sharded),
            "shards": None,
        }
        if binding.sharded:
            shard_stats = selector.stats()
            info["shards"] = shard_stats["num_shards"]
            info["shard_sizes"] = shard_stats["shard_sizes"]
            info["backend"] = shard_stats["backend"]
            info["fan_out"] = shard_stats["last_fan_out"]
            info["mean_task_seconds"] = shard_stats["mean_task_seconds"]
        report.attributes[name] = info
    report.pools = engine.runtime.stats()
    report.service = engine.service.stats()
    report.slow_queries = engine.slow_queries.entries()
    report.slow_query_threshold_seconds = engine.slow_queries.threshold_seconds
    report.feedback = engine.feedback.snapshot()
    hub = getattr(engine, "monitoring", None)
    if hub is not None:
        if now is None:
            now = time.monotonic()
        statuses = hub.slos.evaluate(now, record=False)
        report.slos = [status.to_dict() for status in statuses]
        alert_table = hub.alerts.to_dict()
        report.alerts = [
            {"name": name, **state} for name, state in alert_table["states"].items()
        ]
        report.firing = hub.alerts.firing()
        report.monitoring = hub.status()
    return report
