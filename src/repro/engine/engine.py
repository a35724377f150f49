"""The similarity query engine: spec → plan → execute → feedback.

:class:`SimilarityQueryEngine` is the fourth layer of the stack, composing
everything below it into a system that answers similarity queries end to end:

* attributes register with their records, distance, exact index, and a
  cardinality estimator served through an :class:`~repro.serving.EstimationService`;
* queries are declarative (:mod:`repro.engine.spec`); the planner orders
  predicates and allocates GPH thresholds from served estimates, the executor
  answers exactly through the indexes;
* every execution feeds the observed driver cardinality back into the
  :class:`~repro.engine.feedback.FeedbackMonitor`, which flushes stale curves
  and drives incremental revalidation/retraining when estimates drift.

Maintenance has one model.  An attribute is a list of *units*
``(exact index, serving endpoint, optional §8 manager)``: one per shard of a
sharded attribute (which also keeps a merged planning endpoint over them), and
exactly one — the attribute's own index and planning endpoint — otherwise.
An :class:`~repro.core.IncrementalUpdateManager` adopts its unit's index by
reference at attach and never owns rows or an index of its own, so there is
one maintained state per unit and nothing to reconcile: :meth:`apply_update`
routes an operation to the units it touches, and each applies it once
(through its manager, or directly) to its index, whose store is the column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.db_specialized import HistogramHammingEstimator
from ..core.incremental import (
    IncrementalUpdateManager,
    RevalidationReport,
    UpdateStepReport,
)
from ..core.interface import CardinalityEstimator
from ..datasets.updates import UpdateOperation
from ..obs.explain import (
    ExplainAnalyzeReport,
    HealthReport,
    PredicateAnalysis,
    SlowQueryLog,
    build_health_report,
)
from ..obs.trace import current_span, span, start_trace
from ..runtime import Runtime
from ..selection import PigeonholeHammingSelector, SimilaritySelector, default_selector
from ..selection.delta import resolve_delete_positions
from ..serving import EstimationService, resolve_curve_grid
from ..sharding import MergedShardEstimator, ShardedSelector
from ..sharding.rebalance import RebalancePlan, RebalanceReport, stage, suggest_plan
from .catalog import AttributeBinding, AttributeCatalog
from .executor import QueryExecutor, QueryResult
from .feedback import FeedbackMonitor
from .planner import QueryPlan, QueryPlanner
from .spec import ConjunctiveQuery, SimilarityPredicate, as_queries, as_query


@dataclass
class ShardedUpdateReport:
    """Outcome of one update routed through a sharded attribute: which shards
    it touched and, where a per-shard manager was attached, that shard's
    paper-§8 step report.  Untouched shards did no work at all."""

    operation_index: int
    touched_shards: List[int]
    dataset_size: int
    reports: Dict[int, UpdateStepReport] = field(default_factory=dict)


@dataclass
class ShardedRevalidationReport:
    """Aggregate of per-shard drift-triggered revalidations (one per manager)."""

    reports: Dict[int, RevalidationReport] = field(default_factory=dict)

    @property
    def retrained(self) -> bool:
        return any(report.retrained for report in self.reports.values())

    @property
    def epochs_run(self) -> int:
        return int(sum(report.epochs_run for report in self.reports.values()))


@dataclass
class _ManagerLink:
    """The §8 managers of one attribute, keyed by maintenance unit — the
    feedback monitor's repair handle for the attribute's planning endpoint.

    Drift is detected on the planning endpoint (the merged one, for a sharded
    attribute) but repaired per unit: every manager revalidates against its
    unit's index, which it shares with the engine by reference — labels
    refresh against the data being served whether or not updates were routed
    through the manager.
    """

    managers: Dict[int, IncrementalUpdateManager]
    route_updates: bool
    sharded: bool

    def revalidate(self) -> "Union[RevalidationReport, ShardedRevalidationReport]":
        reports = {
            unit_id: manager.revalidate()
            for unit_id, manager in sorted(self.managers.items())
        }
        return ShardedRevalidationReport(reports) if self.sharded else reports[0]


class SimilarityQueryEngine:
    """End-to-end engine over one table of similarity-queryable attributes."""

    def __init__(
        self,
        service: Optional[EstimationService] = None,
        drift_threshold: float = 4.0,
        feedback_window: int = 32,
        min_feedback_observations: int = 8,
        slow_query_seconds: float = 0.1,
        slow_query_capacity: int = 64,
    ) -> None:
        self.service = service if service is not None else EstimationService()
        #: Stateless; kept only for the e2e harness's ``stats()`` /
        #: ``shutdown()`` calls.
        self.runtime = Runtime()
        self.catalog = AttributeCatalog()
        self.planner = QueryPlanner(self.catalog, self.service)
        self.executor = QueryExecutor(self.catalog)
        self.feedback = FeedbackMonitor(
            self.service,
            drift_threshold=drift_threshold,
            window_size=feedback_window,
            min_observations=min_feedback_observations,
        )
        #: Attribute → its attached §8 managers (one per maintenance unit).
        self._links: Dict[str, _ManagerLink] = {}
        #: Per-shard estimator factories kept from register_sharded_attribute
        #: so a live rebalance can build estimators for the new shard layout.
        #: Caller closures — dropped from snapshots; re-arm after restore with
        #: :meth:`set_estimator_factory` before rebalancing.
        self._estimator_factories: Dict[str, Callable] = {}
        #: Always-on ring buffer of recent queries slower than the threshold;
        #: the escalation path is re-running an entry through explain_analyze.
        self.slow_queries = SlowQueryLog(
            threshold_seconds=slow_query_seconds, capacity=slow_query_capacity
        )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _bring_up(
        self, name, distance_name, selector, estimators,
        curve_thetas=None, theta_max=None, records=None, commit=None,
    ):
        """Bring the serving endpoints of attribute ``name`` up — the one way
        it happens.  The exact index ``selector`` says which family they are
        and ``estimators`` holds one per maintenance unit: the attribute's own
        endpoint plus a ``::partJ`` histogram per part of a pigeonhole index
        (at registration; updates keep the histograms by their delta, see
        :meth:`apply_update`), or ``#shardK`` per shard plus the merged
        endpoint (at registration, and again for a rebalanced layout).

        Callers have validated what is cheap (options, the catalog's say on
        name and rows) and built what is dear (index, estimators), touching
        nothing.  Here the curve grid is resolved once; every family name
        must be free or belong to the family ``name`` serves from now
        (``records`` announce a first registration, which has none); that
        family comes down and the new one up, all-or-nothing; ``commit()`` (a
        rebalance's selector swap) runs; a new attribute enters the catalog.
        Whatever fails, service and catalog are as they were: what came up
        comes down again, what it replaced is restored whole.
        """
        binding = self.catalog.get(name) if records is None else None
        grid, canonical = resolve_curve_grid(estimators, curve_thetas, theta_max, distance_name)
        sharded = isinstance(selector, ShardedSelector)
        if sharded:
            endpoints = self._shard_endpoints(name, estimators, grid, distance_name)
        else:
            own = {"curve_thetas": None if canonical else grid, "distance_name": distance_name}
            endpoints = [(name, estimators[0], own), *self._part_endpoints(name, selector, records)]
        names = [endpoint for endpoint, _, _ in endpoints]
        replacing = [] if binding is None else [
            *binding.shard_endpoints, *binding.part_endpoints, name
        ]
        taken = [e for e in names if e in self.service.registry and e not in replacing]
        if taken:
            raise KeyError(f"attribute {name!r} needs endpoint(s) {taken}, already registered")
        replaced = [self.service.registry.get(e).registration() for e in replacing]
        for endpoint in replacing:
            self.service.unregister(endpoint)
        up = False
        try:
            self.service.register_all(endpoints)
            up = True
            if commit:
                commit()
            if binding is None:
                theta_max = grid[-1] if theta_max is None else theta_max
                binding = self.catalog.add(name, records, distance_name, name, theta_max, selector)
        except BaseException:
            if up:
                for endpoint in names:
                    self.service.unregister(endpoint)
            self.service.register_all(replaced)
            raise
        family = [e for e in names if e != name]
        if sharded:
            binding.shard_endpoints = family
        else:
            binding.part_endpoints = family
        return binding

    def register_attribute(
        self,
        name: str,
        records: Sequence,
        distance_name: str,
        estimator: CardinalityEstimator,
        selector: Optional[SimilaritySelector] = None,
        theta_max: Optional[float] = None,
        curve_thetas: Optional[Sequence[float]] = None,
    ) -> AttributeBinding:
        """Register one queryable attribute.

        ``estimator`` is served under an endpoint named after the attribute,
        on the grid :func:`repro.serving.resolve_curve_grid` decides.
        ``selector`` is the attribute's exact index (default: the distance's
        default selector).  A Hamming attribute gets a pigeonhole index with
        GPH-allocated plans from
        ``selector=PigeonholeHammingSelector(records, part_size=k)``, backed
        by one per-part histogram endpoint (``name::partJ``) on the same
        service.
        """
        self.catalog.validate(name, records)
        if selector is None:
            selector = default_selector(distance_name, records)
        return self._bring_up(
            name, distance_name, selector, [estimator], curve_thetas, theta_max, records
        )

    @staticmethod
    def _part_endpoints(name: str, selector: SimilaritySelector, records) -> List[Tuple]:
        """One histogram endpoint per part of a pigeonhole index (none for any
        other), built over the registered rows.  From then on
        :meth:`apply_update` keeps each by its delta — the histograms
        summarize the data, so stale ones would mis-allocate."""
        if not isinstance(selector, PigeonholeHammingSelector):
            return []
        matrix = np.asarray(records, dtype=np.uint8)
        return [
            (
                f"{name}::part{part_index}",
                HistogramHammingEstimator(matrix[:, start:stop]),
                {
                    "curve_thetas": np.arange(stop - start + 1, dtype=np.float64),
                    "distance_name": "hamming",
                    "metadata": {"part_of": name, "part_index": part_index},
                },
            )
            for part_index, (start, stop) in enumerate(selector.parts)
        ]

    @staticmethod
    def _shard_endpoints(name: str, estimators, grid: np.ndarray, distance_name: str) -> List[Tuple]:
        """One endpoint per shard estimator (``name#shardK``), then the merged
        ``name`` summing their curves, all on ``grid``: per-shard curves only
        sum on a shared grid."""
        merged = {
            "distance_name": distance_name,
            "metadata": {"sharded": True, "num_shards": len(estimators)},
        }
        return [
            *(
                (
                    f"{name}#shard{shard_index}",
                    estimator,
                    {
                        "curve_thetas": grid,
                        "distance_name": distance_name,
                        "metadata": {"shard_of": name, "shard_index": shard_index},
                    },
                )
                for shard_index, estimator in enumerate(estimators)
            ),
            (name, MergedShardEstimator(estimators, grid), merged),
        ]

    def register_sharded_attribute(
        self,
        name: str,
        records: Sequence,
        distance_name: str,
        estimator_factory: Callable[[Sequence, int], CardinalityEstimator],
        num_shards: Optional[int] = None,
        selector_factory: Optional[Callable[[Sequence], SimilaritySelector]] = None,
        theta_max: Optional[float] = None,
        curve_thetas: Optional[Sequence[float]] = None,
        # Kept only because the e2e fixture passes backend="thread"; it goes
        # with ROADMAP's new direction 1 (repro.runtime leaves the package).
        # Any other value raises.
        backend: str = "thread",
    ) -> AttributeBinding:
        """Register one attribute partitioned across ``num_shards`` shards.

        The records are partitioned by a content hash (``num_shards``
        defaults to 4), one exact index is built per shard (``selector_factory``
        over the shard's records, or the distance's default selector), and
        ``estimator_factory(shard_records, shard_index)`` supplies one
        estimator per shard (called once per shard, in shard order, with a
        list of that shard's rows — here, and at a rebalance for each shard it
        builds).  Serving endpoints:
        ``name#shardK`` per shard plus a merged ``name`` endpoint whose curves
        sum the shard estimators' curves in shard order, in one request and,
        for shard CardNets of one configuration, one stacked model pass — the
        planner addresses only the merged endpoint, the executor fans out
        across the shard indexes (a loop on the caller's thread) and merges
        exactly.  ``backend`` must be ``"thread"``.
        """
        if backend != "thread":
            raise ValueError(
                f"unknown backend {backend!r}: shards fan out as a loop on "
                "the caller's thread; there is no pool to choose"
            )
        self.catalog.validate(name, records)
        if selector_factory is None:
            selector_factory = lambda shard_records: default_selector(  # noqa: E731
                distance_name, shard_records
            )
        sharded = ShardedSelector(records, selector_factory, num_shards=num_shards)
        estimators = [
            estimator_factory(list(shard.dataset), shard_index)
            for shard_index, shard in enumerate(sharded.shards)
        ]
        binding = self._bring_up(
            name, distance_name, sharded, estimators, curve_thetas, theta_max, records
        )
        self._estimator_factories[name] = estimator_factory
        return binding

    def set_estimator_factory(
        self,
        name: str,
        estimator_factory: Callable[[Sequence, int], CardinalityEstimator],
    ) -> None:
        """(Re-)arm the per-shard estimator factory a rebalance builds with.

        Factories are caller closures and do not survive snapshots; a
        restored engine needs one set again before :meth:`rebalance_attribute`
        can construct estimators for a new shard layout.
        """
        binding = self.catalog.get(name)
        if not binding.sharded:
            raise ValueError(f"attribute {name!r} is not sharded")
        self._estimator_factories[name] = estimator_factory

    def rebalance_attribute(
        self,
        name: str,
        plan: Optional[RebalancePlan] = None,
    ) -> Optional[RebalanceReport]:
        """Reshape a sharded attribute's layout while it keeps serving.

        Without an explicit ``plan``, one is derived from the current shard
        sizes (:func:`~repro.sharding.suggest_plan`); a balanced layout
        returns ``None`` without doing anything.  The new shards and then
        their serving estimators (the registered factory, over each built
        shard's rows; a shard the plan leaves as it was keeps its estimator)
        are staged while the old layout serves; only then do
        the ``name#shardK`` endpoints swap (same curve grid) and the selector
        its layout, atomically.  If anything fails — the factory, or a swap
        refused because an update landed since staging — the old layout,
        endpoints and managers keep serving.  On success attached per-shard
        update managers are dropped (they were built for the old layout;
        reattach with :meth:`attach_shard_managers` if per-shard paper-§8
        maintenance is still wanted).
        """
        binding = self.catalog.get(name)
        if not binding.sharded:
            raise ValueError(f"attribute {name!r} is not sharded")
        factory = self._estimator_factories.get(name)
        if factory is None:
            raise RuntimeError(
                f"no estimator factory registered for {name!r} (factories do "
                "not survive snapshots); call set_estimator_factory first"
            )
        selector: ShardedSelector = binding.selector
        if plan is None:
            plan = suggest_plan(selector.assignment)
            if plan is None:
                return None
        with span("engine.rebalance", attribute=name, actions=len(plan)):
            staged = stage(selector, plan)
            # An aliased target is a shard the old layout already serves:
            # its estimator carries over; only built targets are trained.
            aliased = staged.resolved.aliased
            current = [self.service.registry.get(e).estimator for e in binding.shard_endpoints]
            estimators = [
                current[aliased[target]] if target in aliased
                else factory(staged.shard_records(target), target)
                for target in range(len(staged.shards))
            ]
            self._bring_up(
                name, binding.distance.name, selector, estimators,
                self.service.registry.get(binding.endpoint).curve_thetas,
                commit=lambda: selector.swap_layout(staged),
            )
            # Per-shard managers were built for the old layout; drop them so
            # drift repair never retrains against shards that no longer exist.
            if self._links.pop(name, None) is not None:
                self.feedback.detach_manager(binding.endpoint)
        return staged.report()

    def attach_shard_managers(
        self,
        name: str,
        managers: "Union[Sequence[IncrementalUpdateManager], Mapping[int, IncrementalUpdateManager]]",
    ) -> None:
        """Wire one :class:`~repro.core.IncrementalUpdateManager` per shard.

        Each manager must hold shard-local labelled examples for its shard;
        :meth:`apply_update` then routes every update to only the managers of
        the shards it touches (paper §8 per shard), and drift on the merged
        endpoint revalidates every attached shard.  Wiring follows
        :meth:`attach_manager`, against the shard's index and endpoint.
        """
        if not isinstance(managers, Mapping):
            managers = dict(enumerate(managers))
        managers = {int(shard_id): manager for shard_id, manager in managers.items()}
        self._attach(name, managers, route_updates=True, sharded=True)

    def attach_manager(
        self, name: str, manager: IncrementalUpdateManager, route_updates: bool = True
    ) -> None:
        """Wire an update manager to an attribute.

        The manager adopts the attribute's index by reference (it must have
        been built over the same rows): one maintained index, not two.  Drift
        detected by the feedback monitor always triggers its revalidation.
        With ``route_updates`` (the default) :meth:`apply_update` also takes
        the paper-§8 path through ``manager.process``; ``route_updates=False``
        keeps the manager a pure model-maintenance component — updates hit
        the data plane directly and only the feedback loop repairs the model.

        A manager without a service connection adopts the engine's service
        under the attribute's endpoint, so its invalidations and validation
        measurements hit the serving path the engine answers from; one wired
        anywhere else is rejected.
        """
        self._attach(name, {0: manager}, route_updates, sharded=False)

    def _attach(
        self,
        name: str,
        managers: Dict[int, IncrementalUpdateManager],
        route_updates: bool,
        sharded: bool,
    ) -> None:
        """Validate, wire and baseline one manager per maintenance unit."""
        binding = self.catalog.get(name)
        if binding.sharded != sharded:
            raise ValueError(
                f"attribute {name!r} is {'' if binding.sharded else 'not '}sharded; use "
                f"{'attach_shard_managers' if binding.sharded else 'attach_manager'}"
            )
        units = binding.units()
        for unit_id, manager in managers.items():
            if not 0 <= unit_id < len(units):
                raise ValueError(
                    f"shard {unit_id} out of range for {binding.name!r} "
                    f"({len(units)} shards)"
                )
            index, endpoint = units[unit_id]
            if len(manager.selector) != len(index):
                raise ValueError(
                    f"manager for {endpoint!r} holds {len(manager.selector)} "
                    f"records but its index has {len(index)}; build managers "
                    "over the rows (or the index itself) they maintain"
                )
            if manager.service is None:
                manager.service = self.service
                manager.service_endpoint = endpoint
            elif (
                manager.service is not self.service
                or manager.service_endpoint != endpoint
            ):
                # A mis-wired manager would invalidate the wrong endpoint on
                # update/retrain; the stale curve would keep being served (or
                # summed into every merged answer) — silently wrong estimates.
                raise ValueError(
                    f"manager is wired to endpoint {manager.service_endpoint!r} on "
                    f"{'another service' if manager.service is not self.service else 'this service'}; "
                    f"it must serve {endpoint!r} on the engine's service "
                    "(or be left unwired to adopt it)"
                )
            # Managers adopt, never own, an index: one maintained state per unit.
            manager.selector = index
            # Pin the healthy validation error while the model is known-good:
            # drift-triggered revalidation recognizes degradation against it.
            manager.ensure_baseline()
        link = self._links[name] = _ManagerLink(managers, route_updates, sharded)
        self.feedback.attach_manager(binding.endpoint, link)

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def explain(self, query: "ConjunctiveQuery | SimilarityPredicate") -> QueryPlan:
        """Plan without executing (the inspectable EXPLAIN path)."""
        return self.planner.plan(as_query(query))

    def execute(self, query: "ConjunctiveQuery | SimilarityPredicate") -> QueryResult:
        """Plan, execute, and feed the observation back — one query."""
        return self.execute_many([query])[0]

    def execute_many(
        self, queries: Sequence["ConjunctiveQuery | SimilarityPredicate"]
    ) -> List[QueryResult]:
        """The bulk path: one batched planning pass for the whole workload,
        then per-query execution and feedback, in order, on the caller's
        thread (the library starts no threads of its own).
        """
        results = []
        for plan in self.planner.plan_many(as_queries(queries)):
            results.append(self.executor.execute(plan))
            self._observe(plan, results[-1])
        return results

    def explain_analyze(
        self,
        query: "ConjunctiveQuery | SimilarityPredicate",
        feedback: bool = True,
    ) -> ExplainAnalyzeReport:
        """Plan, execute, and report estimated-vs-actual per predicate.

        Runs ONE traced query regardless of the global tracing switch, so the
        report's span tree covers plan → estimate → driver scan →
        per-predicate residual verify → per-shard tasks.  The result is the
        same exact answer ``execute`` returns; ``feedback=False`` skips the
        drift observation for purely diagnostic runs.

        Each predicate is paired with its *standalone* actual cardinality:
        the driver's falls out of execution for free, residuals are measured
        with one exact index query each (that extra work is the ANALYZE cost,
        and is itself traced under ``analyze.actuals``).
        """
        normalized = as_query(query)
        started = time.perf_counter()
        with start_trace("query.explain_analyze") as root:
            with span("query.plan"):
                plan = self.planner.plan(normalized)
            result = self.executor.execute(plan)
            if feedback:
                self._observe(plan, result)
            with span("analyze.actuals"):
                predicates = self._analyze_predicates(plan, result)
        return ExplainAnalyzeReport(
            predicates=predicates,
            result_count=len(result.record_ids),
            duration_seconds=time.perf_counter() - started,
            trace=root,
            plan={
                "driver": plan.driver.attribute,
                "driver_shards": plan.driver_shards,
                "allocation": plan.allocation,
                "estimated_candidates": plan.estimated_candidates,
                "estimated_cost": plan.estimated_cost,
                "planning_seconds": plan.planning_seconds,
                "execution_seconds": result.execution_seconds,
            },
        )

    def _analyze_predicates(
        self, plan: QueryPlan, result: QueryResult
    ) -> List[PredicateAnalysis]:
        analyses = [
            PredicateAnalysis(
                attribute=plan.driver.attribute,
                threshold=float(plan.driver.theta),
                estimated=float(plan.driver.estimated_cardinality),
                actual=result.driver_actual,
                role="driver",
            )
        ]
        for planned in plan.residuals:
            binding = self.catalog.get(planned.attribute)
            analyses.append(
                PredicateAnalysis(
                    attribute=planned.attribute,
                    threshold=float(planned.theta),
                    estimated=float(planned.estimated_cardinality),
                    actual=int(
                        binding.selector.cardinality(
                            planned.predicate.record, planned.theta
                        )
                    ),
                    role="residual",
                )
            )
        return analyses

    def _observe(self, plan: QueryPlan, result: QueryResult) -> None:
        self.feedback.observe(
            self.catalog.get(plan.driver.attribute).endpoint,
            plan.driver.estimated_cardinality,
            result.driver_actual,
        )
        if result.execution_seconds < self.slow_queries.threshold_seconds:
            return
        active = current_span()
        self.slow_queries.record(
            {
                "trace_id": None if active is None else active.trace_id,
                "duration_seconds": result.execution_seconds,
                "driver": plan.driver.attribute,
                "theta": float(plan.driver.theta),
                "estimated": float(plan.driver.estimated_cardinality),
                "driver_actual": result.driver_actual,
                "result_count": len(result.record_ids),
                "predicates": [
                    (predicate.attribute, float(predicate.theta))
                    for predicate in plan.query.predicates
                ],
            }
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def apply_update(
        self, name: str, operation: UpdateOperation, operation_index: int = 0
    ) -> "Union[UpdateStepReport, ShardedUpdateReport, None]":
        """Apply one dataset update to an attribute.

        The operation is routed to the maintenance units it touches (the one
        unit of an unsharded attribute; per shard otherwise).  A unit with a
        routed manager takes the paper-§8 path (relabel, monitor, retrain
        incrementally if degraded, invalidate served curves); any other unit
        drops its cached curves and absorbs the delta into its index.
        Untouched units do no work at all, and an operation that changes no
        row touches none: no curve is invalidated and nothing is rebuilt.
        Delete positions follow the update stream's lenient semantics
        (out-of-range skipped, duplicates collapsed).  Returns the manager's
        step report (or ``None``) for an unsharded attribute, a
        :class:`ShardedUpdateReport` for a sharded one.
        """
        binding = self.catalog.get(name)
        if operation.kind == "delete":
            operation = UpdateOperation(
                "delete", resolve_delete_positions(len(binding), operation.records)
            )
        link = self._links.get(name)
        managers = link.managers if link is not None and link.route_updates else {}
        if len(operation.records) == 0:
            if binding.sharded:
                return ShardedUpdateReport(operation_index, [], len(binding))
            manager = managers.get(0)
            return None if manager is None else manager.process(operation, operation_index)
        # Staged before anything changes: parts that cannot take the delta
        # leave the index and every part as they were.
        parts = self._staged_part_histograms(binding, operation) if binding.uses_gph else []
        routing = (
            binding.selector.route_operation(operation) if binding.sharded else None
        )
        local_operations = {0: operation} if routing is None else routing.local_operations
        units = binding.units()
        reports: Dict[int, UpdateStepReport] = {}
        for unit_id, local_operation in sorted(local_operations.items()):
            index, endpoint = units[unit_id]
            manager = managers.get(unit_id)
            if manager is not None:
                reports[unit_id] = manager.process(local_operation, operation_index)
                continue
            self.service.invalidate(endpoint)
            if routing is None:  # a shard's delta commits in apply_routed, under its lock
                apply = index.insert_many if operation.kind == "insert" else index.delete_many
                apply(operation.records)
        if routing is None:
            for endpoint, estimator, counts in parts:
                estimator.adopt_counts(counts)
                self.service.invalidate(endpoint)
            return reports.get(0)
        binding.selector.apply_routed(routing, applied_shards=reports)
        # Merged curves are sums over every shard — stale whenever any shard
        # moved, even though untouched shards keep their own cached curves.
        self.service.invalidate(binding.endpoint)
        return ShardedUpdateReport(
            operation_index=operation_index,
            touched_shards=routing.touched_shards,
            dataset_size=len(binding),
            reports=reports,
        )

    def _staged_part_histograms(self, binding: AttributeBinding, operation) -> List[Tuple]:
        """``(endpoint, estimator, counts)`` per ``::partJ`` histogram: its
        counts once ``operation`` lands, from the Δ rows alone (a delete's
        read from the index before it changes), every part before any is adopted."""
        insert = operation.kind == "insert"
        rows = np.asarray(
            operation.records if insert else binding.selector.rows_at(operation.records),
            dtype=np.uint8,
        )
        inserted, removed = (rows, rows[:0]) if insert else (rows[:0], rows)
        staged = []
        for endpoint, (lo, hi) in zip(binding.part_endpoints, binding.selector.parts):
            estimator = self.service.registry.get(endpoint).estimator
            counts = estimator.counts_after(inserted[:, lo:hi], removed[:, lo:hi])
            staged.append((endpoint, estimator, counts))
        return staged

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def health_report(self) -> HealthReport:
        """Engine-wide status — attributes, service cache, slow queries,
        feedback — as one :class:`~repro.obs.explain.HealthReport`
        (render with ``describe()`` or ``to_json()``)."""
        return build_health_report(self)

    # ------------------------------------------------------------------ #
    # Persistence (repro.store)
    # ------------------------------------------------------------------ #
    def save(self, path) -> "Any":
        """Snapshot the full engine — models, indexes, warm caches, shard
        assignments, feedback state — to directory ``path``.  Returns the
        :class:`~repro.store.SnapshotInfo`; restore with :meth:`load`."""
        from ..store import save_engine

        return save_engine(self, path)

    @classmethod
    def load(cls, path) -> "SimilarityQueryEngine":
        """Warm-start restore of an engine saved by :meth:`save`: the restored
        engine answers bit-identically to the saved one (estimates, plans,
        results, cache hits) and its drift/retrain loop resumes in place."""
        from ..store import load_engine

        return load_engine(path)

    def __snapshot_state__(self) -> Dict[str, Any]:
        """Explicit full-``__dict__`` capture (matched pair of the restore
        hook below — RPR002).  The codec restores the service's locks
        fresh; the per-attribute estimator
        factories are caller closures (unserializable) and are dropped — a
        restored engine re-arms them with :meth:`set_estimator_factory`."""
        state = dict(self.__dict__)
        state["_estimator_factories"] = {}
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        return {
            "attributes": self.catalog.names(),
            "service": self.service.stats(),
            "feedback": self.feedback.snapshot(),
        }
