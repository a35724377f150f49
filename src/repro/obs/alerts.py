"""Declarative alert rules over scraped series, with a deterministic FSM.

Three rule kinds cover the monitoring triad:

* ``threshold`` — the latest sample of a series compared against a value
  (queue depth too deep, utilization pinned at 1.0);
* ``absence`` — the series is missing or stale (no sample within ``window``):
  the scraper died, a pool stopped reporting;
* ``burn_rate`` — an :class:`~repro.obs.slo.SLObjective` is burning its error
  budget too fast (multi-window confirmed, see :mod:`repro.obs.slo`).

Every rule runs a four-state machine::

    inactive ──condition──▶ pending ──held for_seconds──▶ firing
        ▲                      │                             │
        └──────clears──────────┘          clears─────▶ resolved ─condition─▶ pending

Evaluation is driven with an explicit ``now`` (the scraper's clock domain;
injected in tests — RPR004), so the pending→firing dwell and every
transition are deterministic.  Each transition increments
``repro_alert_transitions_total{alert,to}`` and the full rule/state table
exports as JSON — the alert history is itself observable.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .metrics import MetricsRegistry
from .slo import SLOEvaluator, SLOStatus
from .timeseries import TimeSeriesStore

#: Alert rule kinds.
ALERT_KINDS = ("threshold", "absence", "burn_rate")

#: Alert states.
INACTIVE, PENDING, FIRING, RESOLVED = "inactive", "pending", "firing", "resolved"

_COMPARATORS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


@dataclass
class AlertRule:
    """One declarative alert condition.

    ``threshold`` rules compare the latest sample of ``series`` with
    ``comparator``/``value``; ``absence`` rules fire when ``series`` has no
    sample within ``window`` seconds; ``burn_rate`` rules watch the named
    ``slo`` (``value`` overrides its burn threshold when set).
    ``for_seconds`` is the pending dwell before firing (0 fires immediately).
    """

    name: str
    kind: str = "threshold"
    series: Optional[str] = None
    comparator: str = ">"
    value: Optional[float] = None
    window: float = 60.0
    for_seconds: float = 0.0
    slo: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ALERT_KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r}; choose from {ALERT_KINDS}")
        if self.kind in ("threshold", "absence") and not self.series:
            raise ValueError(f"{self.kind} rules need a series key")
        if self.kind == "threshold":
            if self.comparator not in _COMPARATORS:
                raise ValueError(
                    f"unknown comparator {self.comparator!r}; choose from "
                    f"{sorted(_COMPARATORS)}"
                )
            if self.value is None:
                raise ValueError("threshold rules need a value")
        if self.kind == "burn_rate" and not self.slo:
            raise ValueError("burn_rate rules name the SLO they watch")
        if self.for_seconds < 0:
            raise ValueError("for_seconds must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class AlertStatus:
    """One rule's state after one evaluation."""

    name: str
    kind: str
    state: str
    active: bool
    since: Optional[float]
    pending_since: Optional[float]
    value: Optional[float]
    transitions: int

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


def _fresh_state() -> Dict[str, Any]:
    return {
        "state": INACTIVE,
        "since": None,
        "pending_since": None,
        "last_value": None,
        "transitions": 0,
    }


class AlertManager:
    """Evaluates rules against the store and steps each rule's state machine.

    One evaluation per scrape tick; the hub passes the SLO statuses it just
    computed so burn-rate rules and SLO gauges see the same instant.  Driven
    standalone, the manager falls back to its ``evaluator``.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        evaluator: Optional[SLOEvaluator] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.evaluator = evaluator
        self.registry = registry
        self._rules: Dict[str, AlertRule] = {}
        self._states: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add_rule(self, rule: AlertRule) -> AlertRule:
        """Register (or declaratively replace) one rule; replacing resets
        its state machine — the old condition's history is meaningless."""
        with self._lock:
            self._rules[rule.name] = rule
            self._states[rule.name] = _fresh_state()
        return rule

    def rules(self) -> List[AlertRule]:
        with self._lock:
            return [self._rules[name] for name in sorted(self._rules)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._rules)

    # ------------------------------------------------------------------ #
    # Condition evaluation (pure reads; no state machine side effects)
    # ------------------------------------------------------------------ #
    def _condition(
        self,
        rule: AlertRule,
        now: float,
        slo_by_name: Mapping[str, SLOStatus],
    ) -> Tuple[bool, Optional[float]]:
        if rule.kind == "absence":
            latest = self.store.latest(rule.series)
            if latest is None:
                return True, None
            age = now - latest[0]
            return age > rule.window, age
        if rule.kind == "threshold":
            latest = self.store.latest(rule.series)
            if latest is None:
                return False, None  # missingness is the absence rule's job
            observed = float(latest[1])
            return _COMPARATORS[rule.comparator](observed, rule.value), observed
        status = slo_by_name.get(rule.slo)
        if status is None or status.no_data:
            return False, None
        if rule.value is None:
            return status.breaching, status.fast_burn
        active = (
            status.fast_burn is not None
            and status.slow_burn is not None
            and status.fast_burn >= rule.value
            and status.slow_burn >= rule.value
        )
        return active, status.fast_burn

    # ------------------------------------------------------------------ #
    # State machine
    # ------------------------------------------------------------------ #
    def _transition_locked(
        self, rule: AlertRule, state: Dict[str, Any], to: str, now: float
    ) -> None:
        state["state"] = to
        state["since"] = now
        state["transitions"] += 1
        if self.registry is not None:
            self.registry.counter(
                "repro_alert_transitions_total",
                {"alert": rule.name, "to": to},
                description="alert state-machine transitions, by destination",
            ).inc()

    def evaluate(
        self,
        now: float,
        slo_statuses: Optional[List[SLOStatus]] = None,
    ) -> List[AlertStatus]:
        """Step every rule's state machine at ``now`` (name order)."""
        rules = self.rules()
        if slo_statuses is None:
            needs_slo = any(rule.kind == "burn_rate" for rule in rules)
            if needs_slo and self.evaluator is not None:
                slo_statuses = self.evaluator.evaluate(now, record=False)
        slo_by_name = {status.name: status for status in (slo_statuses or ())}
        statuses: List[AlertStatus] = []
        firing = 0
        for rule in rules:
            active, observed = self._condition(rule, now, slo_by_name)
            with self._lock:
                state = self._states.setdefault(rule.name, _fresh_state())
                if active:
                    if state["state"] in (INACTIVE, RESOLVED):
                        self._transition_locked(rule, state, PENDING, now)
                        state["pending_since"] = now
                    if (
                        state["state"] == PENDING
                        and now - state["pending_since"] >= rule.for_seconds
                    ):
                        self._transition_locked(rule, state, FIRING, now)
                else:
                    if state["state"] == PENDING:
                        self._transition_locked(rule, state, INACTIVE, now)
                        state["pending_since"] = None
                    elif state["state"] == FIRING:
                        self._transition_locked(rule, state, RESOLVED, now)
                        state["pending_since"] = None
                state["last_value"] = observed
                if state["state"] == FIRING:
                    firing += 1
                statuses.append(
                    AlertStatus(
                        name=rule.name,
                        kind=rule.kind,
                        state=state["state"],
                        active=active,
                        since=state["since"],
                        pending_since=state["pending_since"],
                        value=observed,
                        transitions=state["transitions"],
                    )
                )
        if self.registry is not None:
            self.registry.gauge(
                "repro_alerts_firing",
                description="alert rules currently in the firing state",
            ).set(firing)
        return statuses

    # ------------------------------------------------------------------ #
    # Introspection / export
    # ------------------------------------------------------------------ #
    def state(self, name: str) -> str:
        with self._lock:
            return self._states.get(name, _fresh_state())["state"]

    def firing(self) -> List[str]:
        with self._lock:
            return sorted(
                name
                for name, state in self._states.items()
                if state["state"] == FIRING
            )

    def to_dict(self) -> Dict[str, Any]:
        """Read-only rule + state table (no state machine side effects)."""
        with self._lock:
            return {
                "rules": [self._rules[name].to_dict() for name in sorted(self._rules)],
                "states": {
                    name: dict(self._states[name]) for name in sorted(self._states)
                },
            }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store): rules + states persist, lock does not.
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
