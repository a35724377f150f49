"""Conjunctive similarity-query optimizer case study (paper §9.11.1).

A query is a conjunction of Euclidean-distance predicates over the attributes
of a multi-attribute relation (the paper's example: blocking rules for entity
matching).  The processing strategy mirrors the paper:

1. estimate the cardinality of every predicate;
2. pick the predicate with the smallest estimate and answer it with an index
   lookup (a ball-partition index here, a cover tree in the paper);
3. verify the remaining predicates on the fly over the retrieved candidates.

The quality of the cardinality estimator determines how often the truly most
selective predicate is chosen (*planning precision*, Fig. 12) and hence the
end-to-end processing cost (Fig. 11).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.interface import CardinalityEstimator
from ..datasets.relations import MultiAttributeRelation
from ..selection.euclidean_index import BallIndexEuclideanSelector


@dataclass
class Predicate:
    """One Euclidean-distance predicate ``||relation[attribute] - vector|| <= threshold``."""

    attribute: str
    vector: np.ndarray
    threshold: float


@dataclass
class ConjunctiveQuery:
    """A conjunction of predicates over distinct attributes."""

    predicates: List[Predicate]

    def attributes(self) -> List[str]:
        return [predicate.attribute for predicate in self.predicates]


@dataclass
class ConjunctivePlan:
    """Inspectable plan for one conjunctive query.

    The planner's whole decision is captured here before anything executes:
    per-predicate estimates (in the query's own predicate order), the chosen
    driving predicate, and the order the remaining predicates are verified in
    (ascending estimate, so the most selective residual prunes first).
    """

    query: ConjunctiveQuery
    estimates: Dict[str, float]
    chosen_attribute: str
    verify_order: List[str]
    estimation_seconds: float = 0.0

    @property
    def estimated_candidates(self) -> float:
        return self.estimates[self.chosen_attribute]


@dataclass
class QueryExecution:
    """Outcome of executing one conjunctive query under some planning policy."""

    chosen_attribute: str
    result_ids: List[int]
    candidates_examined: int
    estimation_seconds: float
    processing_seconds: float
    optimal_attribute: str

    @property
    def picked_optimal(self) -> bool:
        return self.chosen_attribute == self.optimal_attribute


class ConjunctiveQueryProcessor:
    """Plans and executes conjunctive Euclidean-predicate queries."""

    def __init__(self, relation: MultiAttributeRelation, num_pivots: int = 16, seed: int = 0) -> None:
        self.relation = relation
        self.indexes: Dict[str, BallIndexEuclideanSelector] = {
            attribute: BallIndexEuclideanSelector(matrix, num_pivots=num_pivots, seed=seed)
            for attribute, matrix in relation.attributes.items()
        }

    # ------------------------------------------------------------------ #
    # Exact per-predicate answers (ground truth for precision measurement)
    # ------------------------------------------------------------------ #
    def predicate_matches(self, predicate: Predicate) -> List[int]:
        return self.indexes[predicate.attribute].query(predicate.vector, predicate.threshold)

    def true_cardinalities(self, query: ConjunctiveQuery) -> Dict[str, int]:
        return {
            predicate.attribute: len(self.predicate_matches(predicate))
            for predicate in query.predicates
        }

    def answer(self, query: ConjunctiveQuery) -> List[int]:
        """Exact answer of the conjunction (intersection of all predicates)."""
        result: Optional[set] = None
        for predicate in query.predicates:
            matches = set(self.predicate_matches(predicate))
            result = matches if result is None else (result & matches)
        return sorted(result or set())

    # ------------------------------------------------------------------ #
    # Batched planning
    # ------------------------------------------------------------------ #
    def plan_estimates(
        self,
        queries: Sequence[ConjunctiveQuery],
        estimators: Dict[str, CardinalityEstimator],
    ) -> List[Dict[str, float]]:
        """Per-predicate estimates for a whole workload, batched per attribute.

        Every attribute's estimator receives exactly ONE ``estimate_batch``
        call covering that attribute's predicates across all queries, instead
        of one scalar ``estimate`` call per (query, predicate) pair.
        """
        queries = list(queries)
        gathered: Dict[str, List[tuple[int, np.ndarray, float]]] = {}
        for query_index, query in enumerate(queries):
            for predicate in query.predicates:
                if not hasattr(predicate, "vector"):
                    raise TypeError(
                        f"expected repro.optimizer Predicate, got {type(predicate).__name__}; "
                        "repro.engine.ConjunctiveQuery specs run through "
                        "SimilarityQueryEngine, not this processor"
                    )
                gathered.setdefault(predicate.attribute, []).append(
                    (query_index, predicate.vector, predicate.threshold)
                )
        estimates: List[Dict[str, float]] = [{} for _ in queries]
        for attribute, requests in gathered.items():
            values = estimators[attribute].estimate_batch(
                [vector for _, vector, _ in requests],
                [threshold for _, _, threshold in requests],
            )
            for (query_index, _, _), value in zip(requests, values):
                estimates[query_index][attribute] = float(value)
        # Each dict must follow the query's own predicate order: the planner's
        # argmin breaks ties by insertion order, and per-query planning
        # inserts in predicate order — batching must not change tie-breaks.
        return [
            {predicate.attribute: values[predicate.attribute] for predicate in query.predicates}
            for query, values in zip(queries, estimates)
        ]

    # ------------------------------------------------------------------ #
    # Planning (plan objects, consumed by execute_plan and repro.engine)
    # ------------------------------------------------------------------ #
    def _plan_from_estimates(
        self,
        query: ConjunctiveQuery,
        estimates: Dict[str, float],
        estimation_seconds: float = 0.0,
    ) -> ConjunctivePlan:
        # min() breaks ties by insertion order = the query's predicate order.
        chosen_attribute = min(estimates, key=estimates.get)
        verify_order = sorted(
            (attribute for attribute in estimates if attribute != chosen_attribute),
            key=estimates.get,
        )
        return ConjunctivePlan(
            query=query,
            estimates=estimates,
            chosen_attribute=chosen_attribute,
            verify_order=verify_order,
            estimation_seconds=estimation_seconds,
        )

    def plan(
        self, query: ConjunctiveQuery, estimators: Dict[str, CardinalityEstimator]
    ) -> ConjunctivePlan:
        """Plan one query: estimate every predicate and pick the driver."""
        estimation_start = time.perf_counter()
        estimates = self.plan_estimates([query], estimators)[0]
        return self._plan_from_estimates(
            query, estimates, time.perf_counter() - estimation_start
        )

    def plan_workload(
        self,
        queries: Sequence[ConjunctiveQuery],
        estimators: Dict[str, CardinalityEstimator],
    ) -> List[ConjunctivePlan]:
        """Plans for a whole workload, one batched estimator call per attribute;
        each plan carries its amortized share of the estimation time."""
        queries = list(queries)
        if not queries:
            return []
        estimation_start = time.perf_counter()
        workload_estimates = self.plan_estimates(queries, estimators)
        per_query_seconds = (time.perf_counter() - estimation_start) / len(queries)
        return [
            self._plan_from_estimates(query, estimates, per_query_seconds)
            for query, estimates in zip(queries, workload_estimates)
        ]

    # ------------------------------------------------------------------ #
    # Planned execution
    # ------------------------------------------------------------------ #
    def execute_plan(self, plan: ConjunctivePlan) -> QueryExecution:
        """Execute a previously produced plan: one index lookup for the driving
        predicate, then vectorized verification of the residual predicates over
        the shrinking candidate set."""
        query = plan.query
        by_attribute = {predicate.attribute: predicate for predicate in query.predicates}

        processing_start = time.perf_counter()
        chosen_predicate = by_attribute[plan.chosen_attribute]
        candidates = self.predicate_matches(chosen_predicate)
        surviving = np.asarray(candidates, dtype=np.int64)
        for attribute in plan.verify_order:
            if surviving.size == 0:
                break
            predicate = by_attribute[attribute]
            block = self.relation.attribute(attribute)[surviving]
            deltas = block - predicate.vector[None, :]
            distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
            surviving = surviving[distances <= predicate.threshold + 1e-12]
        result = [int(record_id) for record_id in surviving]
        processing_seconds = time.perf_counter() - processing_start

        true_cardinalities = self.true_cardinalities(query)
        optimal_attribute = min(true_cardinalities, key=true_cardinalities.get)
        return QueryExecution(
            chosen_attribute=plan.chosen_attribute,
            result_ids=result,
            candidates_examined=len(candidates),
            estimation_seconds=plan.estimation_seconds,
            processing_seconds=processing_seconds,
            optimal_attribute=optimal_attribute,
        )

    def execute(
        self, query: ConjunctiveQuery, estimators: Dict[str, CardinalityEstimator]
    ) -> QueryExecution:
        """Plan and execute one query.

        ``estimators[attribute]`` estimates the cardinality of a predicate on
        that attribute.  The exact per-predicate cardinalities are computed as
        well (outside the timed region) to determine the optimal plan.
        """
        return self.execute_plan(self.plan(query, estimators))


@dataclass
class WorkloadReport:
    """Aggregate of executing a conjunctive-query workload with one estimator set."""

    total_estimation_seconds: float = 0.0
    total_processing_seconds: float = 0.0
    total_candidates: int = 0
    precision_hits: int = 0
    num_queries: int = 0
    executions: List[QueryExecution] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.total_estimation_seconds + self.total_processing_seconds

    @property
    def planning_precision(self) -> float:
        return self.precision_hits / self.num_queries if self.num_queries else 0.0

    def add(self, execution: QueryExecution) -> None:
        self.total_estimation_seconds += execution.estimation_seconds
        self.total_processing_seconds += execution.processing_seconds
        self.total_candidates += execution.candidates_examined
        self.precision_hits += int(execution.picked_optimal)
        self.num_queries += 1
        self.executions.append(execution)


def run_conjunctive_workload(
    processor: ConjunctiveQueryProcessor,
    queries: Sequence[ConjunctiveQuery],
    estimators: Dict[str, CardinalityEstimator],
) -> WorkloadReport:
    """Execute a query workload and aggregate timing / planning precision.

    All predicate estimates for the workload are fetched up front with one
    batched call per attribute estimator; each execution's
    ``estimation_seconds`` is its amortized share of that planning time.
    """
    report = WorkloadReport()
    for plan in processor.plan_workload(queries, estimators):
        report.add(processor.execute_plan(plan))
    return report


def generate_conjunctive_queries(
    relation: MultiAttributeRelation,
    num_queries: int = 50,
    threshold_range: Sequence[float] = (0.2, 0.5),
    noise_std: float = 0.05,
    seed: int = 0,
) -> List[ConjunctiveQuery]:
    """Sample conjunctive queries: a perturbed copy of a random record's attributes
    with per-predicate thresholds uniform in ``threshold_range`` (paper §9.11.1)."""
    rng = np.random.default_rng(seed)
    low, high = threshold_range
    queries: List[ConjunctiveQuery] = []
    num_records = len(relation)
    for _ in range(num_queries):
        record_id = int(rng.integers(0, num_records))
        predicates = []
        for attribute, matrix in relation.attributes.items():
            vector = matrix[record_id] + rng.normal(0.0, noise_std, size=matrix.shape[1])
            norm = np.linalg.norm(vector)
            if norm > 0:
                vector = vector / norm
            predicates.append(
                Predicate(attribute=attribute, vector=vector, threshold=float(rng.uniform(low, high)))
            )
        queries.append(ConjunctiveQuery(predicates=predicates))
    return queries
