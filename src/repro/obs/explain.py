"""EXPLAIN ANALYZE structures: per-predicate estimate-vs-actual reports.

The engine's planner orders predicates by *estimated* cardinality; whether
that ordering was right is only knowable after execution.  An
:class:`ExplainAnalyzeReport` pairs the two for every predicate of one query
— estimated count, actual count, q-error — alongside the query's full span
tree, so "the estimator chose the wrong driver" and "shard 3 is the
straggler" are both one report away.

:class:`SlowQueryLog` is the always-on counterpart: a bounded ring buffer of
the most recent queries whose wall-time crossed a threshold, kept as plain
dicts (JSON- and snapshot-friendly) so a long-lived engine can answer "what
was slow lately?" without tracing ever having been enabled.

:class:`HealthReport` is the engine-wide view behind ``health_report()``:
attributes and shard topology, the service cache, the slow-query ring
and the feedback loop, each read from the live object that already holds it.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, List, Optional

from .trace import Span


@dataclass
class PredicateAnalysis:
    """One predicate's planned-vs-observed story."""

    attribute: str
    threshold: float
    estimated: float
    actual: int
    role: str  # "driver" or "residual"

    @property
    def q_error(self) -> float:
        """max(est/act, act/est), the estimator's symmetric error ratio."""
        est = max(float(self.estimated), 1.0)
        act = max(float(self.actual), 1.0)
        return max(est / act, act / est)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attribute": self.attribute,
            "threshold": self.threshold,
            "estimated": self.estimated,
            "actual": self.actual,
            "role": self.role,
            "q_error": self.q_error,
        }


@dataclass
class ExplainAnalyzeReport:
    """The paired plan/execution report for one query."""

    predicates: List[PredicateAnalysis]
    result_count: int
    duration_seconds: float
    trace: Optional[Span] = None
    plan: Dict[str, Any] = field(default_factory=dict)

    @property
    def driver(self) -> Optional[PredicateAnalysis]:
        for predicate in self.predicates:
            if predicate.role == "driver":
                return predicate
        return None

    def stage_seconds(self) -> Dict[str, float]:
        """Total recorded wall-time per span name across the trace."""
        totals: Dict[str, float] = {}
        if self.trace is not None:
            for node in self.trace.iter_spans():
                if node.duration is not None:
                    totals[node.name] = totals.get(node.name, 0.0) + node.duration
        return totals

    def shard_spans(self) -> List[Span]:
        """Per-shard task spans, in depth-first (fan-out) order."""
        return [] if self.trace is None else self.trace.find("shard.task")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "predicates": [predicate.to_dict() for predicate in self.predicates],
            "result_count": self.result_count,
            "duration_seconds": self.duration_seconds,
            "plan": dict(self.plan),
            "stage_seconds": self.stage_seconds(),
            "trace": None if self.trace is None else self.trace.to_dict(),
        }

    def describe(self) -> str:
        """Human-readable report: predicate table, stage times, span tree."""
        lines = [
            f"EXPLAIN ANALYZE  results={self.result_count}  "
            f"wall={self.duration_seconds * 1e3:.3f} ms"
        ]
        for predicate in self.predicates:
            lines.append(
                f"  [{predicate.role:>8}] {predicate.attribute}"
                f" <= {predicate.threshold:g}"
                f"  est={predicate.estimated:.1f}"
                f"  act={predicate.actual}"
                f"  q-err={predicate.q_error:.2f}"
            )
        stages = self.stage_seconds()
        if stages:
            lines.append("  stages:")
            for name in sorted(stages, key=stages.get, reverse=True):
                lines.append(f"    {name:<24} {stages[name] * 1e3:.3f} ms")
        if self.trace is not None:
            lines.append(self.trace.tree(indent=1))
        return "\n".join(lines)


class SlowQueryLog:
    """Bounded ring buffer of recent slow queries (plain-dict entries).

    Thread-safe; O(capacity) memory.  Entries carry wall-time, predicate
    shapes, and result count — enough to re-run the query through
    ``explain_analyze`` later, which is the intended escalation path.
    """

    def __init__(self, threshold_seconds: float = 0.1, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_seconds = float(threshold_seconds)
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()

    def record(self, entry: Dict[str, Any]) -> bool:
        """Keep ``entry`` if its duration crosses the threshold."""
        if entry.get("duration_seconds", 0.0) < self.threshold_seconds:
            return False
        with self._lock:
            self._entries.append(dict(entry))
        return True

    def entries(self) -> List[Dict[str, Any]]:
        """Oldest-first copy of the retained entries."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "capacity": self._entries.maxlen,
                "entries": [dict(entry) for entry in self._entries],
            }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The log as JSON (entries are plain dicts by construction)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)


@dataclass
class HealthReport:
    """Engine-wide status: attributes, service, slow queries, feedback.

    A plain-data pairing of everything ``health_report()`` gathered, with a
    JSON rendering (:meth:`to_dict`/:meth:`to_json`) for machines and a text
    rendering (:meth:`describe`) for terminals.
    """

    attributes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    service: Dict[str, Any] = field(default_factory=dict)
    slow_queries: List[Dict[str, Any]] = field(default_factory=list)
    slow_query_threshold_seconds: float = 0.0
    feedback: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    def describe(self) -> str:
        """Terminal rendering: one section per subsystem."""
        lines = ["ENGINE HEALTH"]
        if self.attributes:
            lines.append("  attributes:")
            for name, info in sorted(self.attributes.items()):
                shard_note = f" shards={info['shards']}" if info.get("shards") else ""
                lines.append(
                    f"    {name:<20} {info['distance']:<10} "
                    f"records={info['records']}{shard_note}"
                )
        cache = self.service.get("cache") or {}
        if cache:
            lines.append(
                f"  cache: size={cache.get('size')}/{cache.get('capacity')} "
                f"hit_rate={cache.get('hit_rate', 0.0):.3f} "
                f"evictions={cache.get('evictions')}"
            )
        retained = len(self.slow_queries)
        lines.append(
            f"  slow queries: {retained} retained "
            f"(threshold {self.slow_query_threshold_seconds * 1e3:.0f} ms)"
        )
        return "\n".join(lines)


def build_health_report(engine: Any) -> HealthReport:
    """Gather a :class:`HealthReport` from a live engine (read-only)."""
    report = HealthReport()
    for name in engine.catalog.names():
        binding = engine.catalog.get(name)
        info: Dict[str, Any] = {
            "records": len(binding),
            "distance": binding.distance.name,
            "sharded": bool(binding.sharded),
            "shards": None,
        }
        if binding.sharded:
            shard_stats = binding.selector.stats()
            info["shards"] = shard_stats["num_shards"]
            info["shard_sizes"] = shard_stats["shard_sizes"]
        report.attributes[name] = info
    report.service = engine.service.stats()
    report.slow_queries = engine.slow_queries.entries()
    report.slow_query_threshold_seconds = engine.slow_queries.threshold_seconds
    report.feedback = engine.feedback.snapshot()
    return report
