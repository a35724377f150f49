"""Estimator-driven query planning.

The planner never touches an estimator directly: every estimate comes from its
estimate source — in the engine the :class:`repro.serving.EstimationService`,
so micro-batching and the monotone curve cache apply to planning traffic
exactly as to any other client (the §9.11 case study passes
:class:`repro.optimizer.DirectEstimates` instead).  Two levels of planning:

* **driver choice** — all predicates of a query (and, in
  :meth:`QueryPlanner.plan_many`, of a whole workload) are estimated with one
  batched service call per endpoint.  Each predicate is priced as the
  *driving* predicate answered by its index, the rest verifying candidates
  in rank order: the driver's ``probe_cost(estimate)`` plus each residual's
  ``verify_cost(rows)`` over the rows flowing into it (the driver's
  estimate, shrunk by ``estimate / n`` after every residual), plus the GPH
  allocation for a pigeonhole driver.  The costs are µs constants each
  index class carries (:class:`~repro.selection.SimilaritySelector`), so no
  clock is read and plans are deterministic.  The cheapest plan wins; a tie
  keeps the query's predicate order.  The paper's §9.11.1 rule — the
  smallest estimate drives — is the special case of one index class, size
  and distance everywhere, where the price rises with the estimate;
* **residual order** — residuals verify by ascending rank
  ``per_row_verify_cost / (1 - estimate / n)``, the µs a residual spends
  per row it discards (``inf`` when it is expected to discard none), ties
  in ascending-estimate order.  For independent filters this order
  minimises the per-row part of the price above (swapping two adjacent
  residuals out of rank order never lowers it); the fixed parts do not
  depend on the order.  With one index class everywhere it is
  ascending-estimate order, most selective first;
* **GPH threshold allocation** — when the driving predicate's attribute is a
  pigeonhole Hamming index with per-part endpoints, the general-pigeonhole
  allocation DP (:class:`repro.optimizer.GPHQueryProcessor`) chooses per-part
  thresholds from per-part cardinality *curves* served (and cached) by the
  same service.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distances.base import integer_radius
from ..obs.trace import span
from ..optimizer.gph import GPHQueryProcessor, PartCardinalityEstimator
from ..selection import SimilaritySelector
from ..serving import EstimationService
from .catalog import AttributeBinding, AttributeCatalog
from .spec import ConjunctiveQuery, SimilarityPredicate


#: µs the service spends serving one per-part curve of a GPH allocation from a
#: cold cache (measured by ``calibrate_costs.py`` under ``docs/perf/``): a GPH
#: driver pays it once per part on top of its probe.
GPH_PART_CURVE_COST_US = 280.0


class ServicePartCurves(PartCardinalityEstimator):
    """Per-part cardinality curves fetched through the estimation service.

    The GPH allocation DP consumes one curve per part; each part is a serving
    endpoint, so curves come from the service's cache whenever the same part
    pattern was planned before.
    """

    def __init__(self, service: EstimationService, part_endpoints: Sequence[str]) -> None:
        self._service = service
        self._part_endpoints = list(part_endpoints)

    def part_curves(
        self, part_queries: Sequence[np.ndarray], limits: Sequence[int]
    ) -> List[np.ndarray]:
        return [
            self._service.estimate_curve(self._part_endpoints[part_index], part_bits)[
                : limit + 1
            ]
            for part_index, (part_bits, limit) in enumerate(zip(part_queries, limits))
        ]


@dataclass
class PlannedPredicate:
    """One predicate of a plan, annotated with its estimated cardinality."""

    predicate: SimilarityPredicate
    estimated_cardinality: float

    @property
    def attribute(self) -> str:
        return self.predicate.attribute

    @property
    def theta(self) -> float:
        return self.predicate.theta


@dataclass
class QueryPlan:
    """Inspectable execution plan for one query.

    ``driver`` — the predicate whose plan prices cheapest
    (``estimated_cost``) — is answered with its attribute's exact index;
    ``residuals`` verify the driver's candidates with vectorized distance
    kernels, in ascending rank (see the module docstring): the residual that
    costs least per row it discards first.  ``allocation`` carries GPH per-part
    thresholds when the driver is a pigeonhole Hamming attribute.
    """

    query: ConjunctiveQuery
    driver: PlannedPredicate
    residuals: List[PlannedPredicate] = field(default_factory=list)
    allocation: Optional[List[int]] = None
    estimated_candidates: float = 0.0
    #: The planner's price of this plan in µs (driver probe + residual
    #: verifies, from the indexes' measured cost constants); the chosen
    #: driver is the one that minimises it.
    estimated_cost: float = 0.0
    planning_seconds: float = 0.0
    #: Number of shards the driving predicate executes over (1 = unsharded).
    #: The estimate behind ``driver`` is the merged (summed-curve) endpoint's,
    #: so planning sees one monotone curve however many shards execute it.
    driver_shards: int = 1

    def describe(self) -> str:
        """Human-readable plan, EXPLAIN-style."""
        lines = [
            f"QueryPlan for {self.query!r}",
            f"  drive   {self.driver.attribute} (theta={self.driver.theta:g}, "
            f"est={self.driver.estimated_cardinality:.1f})"
            + (f" allocation={self.allocation}" if self.allocation is not None else "")
            + (f" shards={self.driver_shards}" if self.driver_shards > 1 else ""),
        ]
        lines.extend(
            f"  verify  {planned.attribute} (theta={planned.theta:g}, "
            f"est={planned.estimated_cardinality:.1f})"
            for planned in self.residuals
        )
        lines.append(f"  estimated candidates: {self.estimated_candidates:.1f}")
        lines.append(f"  estimated cost: {self.estimated_cost:.0f} us")
        return "\n".join(lines)


def residual_order(
    planned: Sequence[PlannedPredicate], selectors: Sequence[SimilaritySelector]
) -> List[int]:
    """Positions of ``planned`` in the order residuals verify: ascending rank
    ``per_row_verify_cost / (1 - estimate / n)`` — the µs a residual's verify
    spends per row it is expected to discard, ``inf`` when it is expected to
    discard none — ties in ascending-estimate order, then in predicate order
    (both sorts are stable).  A plan's residuals are this order without its
    driver."""

    def rank(position: int) -> float:
        estimate, rows = planned[position].estimated_cardinality, len(selectors[position])
        if estimate >= rows:
            return math.inf
        return selectors[position].verify_cost_coefficients()[1] / (1.0 - estimate / rows)

    ascending = sorted(range(len(planned)), key=lambda i: planned[i].estimated_cardinality)
    return sorted(ascending, key=rank)


class QueryPlanner:
    """Turns query specs into :class:`QueryPlan` objects.  ``service`` is the
    estimate source: anything with the service's ``estimate_many`` (and, for
    GPH attributes, ``estimate_curve``)."""

    def __init__(self, catalog: AttributeCatalog, service: EstimationService) -> None:
        self.catalog = catalog
        self.service = service

    # ------------------------------------------------------------------ #
    # Batched estimation
    # ------------------------------------------------------------------ #
    def _workload_estimates(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> List[List[float]]:
        """Per-predicate estimates for a workload — ONE ``estimate_many`` call
        per serving endpoint, covering that endpoint's predicates across all
        queries (the curve cache turns repeated records into free hits)."""
        gathered: Dict[str, List[Tuple[int, int]]] = {}
        for query_index, query in enumerate(queries):
            for predicate_index, predicate in enumerate(query.predicates):
                endpoint = self.catalog.get(predicate.attribute).endpoint
                gathered.setdefault(endpoint, []).append((query_index, predicate_index))
        estimates: List[List[float]] = [
            [0.0] * len(query.predicates) for query in queries
        ]
        for endpoint, positions in gathered.items():
            values = self.service.estimate_many(
                endpoint,
                [queries[qi].predicates[pi].record for qi, pi in positions],
                [queries[qi].predicates[pi].theta for qi, pi in positions],
            )
            for (query_index, predicate_index), value in zip(positions, values):
                estimates[query_index][predicate_index] = float(value)
        return estimates

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def _assemble(
        self,
        query: ConjunctiveQuery,
        predicate_estimates: Sequence[float],
        planning_seconds: float,
    ) -> QueryPlan:
        planned = [
            PlannedPredicate(predicate=predicate, estimated_cardinality=estimate)
            for predicate, estimate in zip(query.predicates, predicate_estimates)
        ]
        bindings = [self.catalog.get(p.attribute) for p in planned]
        # Every driver's residuals verify in one order; min() keeps cost ties
        # in the query's predicate order.
        order = residual_order(planned, [binding.selector for binding in bindings])
        costs = self._plan_costs(planned, bindings, order)
        chosen = min(range(len(planned)), key=costs.__getitem__)
        driver = planned[chosen]
        plan = QueryPlan(
            query=query,
            driver=driver,
            residuals=[planned[i] for i in order if i != chosen],
            estimated_candidates=driver.estimated_cardinality,
            estimated_cost=costs[chosen],
            planning_seconds=planning_seconds,
        )
        binding = bindings[chosen]
        if binding.sharded:
            plan.driver_shards = len(binding.shard_endpoints)
        if binding.uses_gph:
            gph_start = time.perf_counter()
            with span("plan.gph", attribute=driver.attribute) as gph_span:
                gph_plan = GPHQueryProcessor(selector=binding.selector).plan(
                    driver.predicate.record,
                    integer_radius(driver.theta),
                    ServicePartCurves(self.service, binding.part_endpoints),
                )
                gph_span.set(allocation=gph_plan.allocation)
            plan.allocation = gph_plan.allocation
            plan.estimated_candidates = gph_plan.estimated_candidates
            plan.planning_seconds += time.perf_counter() - gph_start
        return plan

    @staticmethod
    def _plan_costs(
        planned: Sequence[PlannedPredicate],
        bindings: Sequence[AttributeBinding],
        order: Sequence[int],
    ) -> List[float]:
        """Estimated µs of executing with each predicate as the driver: its
        index's probe (plus the GPH allocation, priced cold), then each
        residual's verify, in ``order`` — the order the plan's residuals run
        in — over the rows flowing into it: the driver's estimate, shrunk by
        ``estimate / n`` after every residual."""
        selectors = [binding.selector for binding in bindings]
        shrink = [
            p.estimated_cardinality / max(1, len(selector))
            for p, selector in zip(planned, selectors)
        ]
        costs = []
        for driver, binding in enumerate(bindings):
            rows = planned[driver].estimated_cardinality
            cost = selectors[driver].probe_cost(rows)
            if binding.uses_gph:
                cost += GPH_PART_CURVE_COST_US * len(binding.part_endpoints)
            for residual in order:
                if residual != driver:
                    cost += selectors[residual].verify_cost(rows)
                    rows *= shrink[residual]
            costs.append(cost)
        return costs

    def plan(self, query: ConjunctiveQuery) -> QueryPlan:
        """Plan one query (a one-element batch through the workload path)."""
        return self.plan_many([query])[0]

    def iter_plans(self, queries: Sequence[ConjunctiveQuery]):
        """Plan a workload incrementally: one batched estimation pass up
        front, then one plan yielded per query as it is assembled.

        A caller can act on a yielded plan while later queries are still
        being assembled (GPH allocation in particular can dominate assembly
        time).  Consuming the whole generator produces exactly
        :meth:`plan_many`'s output.
        """
        queries = list(queries)
        if not queries:
            return
        for query in queries:
            for predicate in query.predicates:
                self.catalog.get(predicate.attribute)  # fail fast on unknown names
        start = time.perf_counter()
        with span("plan.estimate", queries=len(queries)):
            workload_estimates = self._workload_estimates(queries)
        per_query_seconds = (time.perf_counter() - start) / len(queries)
        for query, estimates in zip(queries, workload_estimates):
            yield self._assemble(query, estimates, per_query_seconds)

    def plan_many(self, queries: Sequence[ConjunctiveQuery]) -> List[QueryPlan]:
        """Plan a whole workload with batched estimation.

        Each plan's ``planning_seconds`` is its amortized share of the batched
        estimation time plus its own GPH allocation time (if any).
        """
        return list(self.iter_plans(queries))
