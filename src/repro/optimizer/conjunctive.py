"""Conjunctive similarity-query optimizer case study (paper §9.11.1).

A query is a conjunction of Euclidean-distance predicates over the attributes
of a multi-attribute relation (the paper's example: blocking rules for entity
matching).  The processing strategy is the engine's: estimate every
predicate, answer the smallest estimate with its index, verify the rest over
the candidates (:class:`repro.engine.QueryPlanner` +
:class:`repro.engine.QueryExecutor`).  This module holds what is case study
and not engine: the query workload, the relation's catalog, an estimate source
that asks a policy's estimators directly, and the plan-quality report.

The quality of the cardinality estimator determines how often the truly most
selective predicate is chosen (*planning precision*, Fig. 12) and hence the
end-to-end processing cost (Fig. 11).  A policy is compared by planning with
``QueryPlanner(catalog, DirectEstimates(policy_estimators))`` and executing
the plans with one ``QueryExecutor(catalog)`` shared by all policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Sequence

import numpy as np

from ..core.interface import CardinalityEstimator
from ..datasets.relations import MultiAttributeRelation
from ..engine.catalog import AttributeCatalog
from ..engine.spec import ConjunctiveQuery, SimilarityPredicate
from ..selection.euclidean_index import BallIndexEuclideanSelector

if TYPE_CHECKING:  # repro.engine.planner imports this package (for the GPH DP)
    from ..engine.executor import QueryResult


def relation_catalog(
    relation: MultiAttributeRelation, num_pivots: int = 16, seed: int = 0
) -> AttributeCatalog:
    """One Euclidean attribute per relation column, each behind a ball index;
    an attribute's estimate endpoint carries the attribute's name.  Rows and
    probes are unit vectors, so no threshold past 2 selects anything new."""
    catalog = AttributeCatalog()
    for attribute, matrix in relation.attributes.items():
        catalog.add(
            attribute,
            matrix,
            "euclidean",
            endpoint=attribute,
            theta_max=2.0,
            selector=BallIndexEuclideanSelector(matrix, num_pivots=num_pivots, seed=seed),
        )
    return catalog


class DirectEstimates:
    """Estimate source for ``QueryPlanner`` that asks a policy's estimators
    directly: one ``estimate_batch`` call per endpoint, no cache and no
    threshold grid between the planner and the estimator (the paper's setting —
    an ``EstimationService`` would snap a Euclidean oracle's θ to its curve
    grid, and "Exact" would stop being exact)."""

    def __init__(self, estimators: Mapping[str, CardinalityEstimator]) -> None:
        self.estimators = estimators

    def estimate_many(self, endpoint: str, records: Sequence, thetas: Sequence[float]):
        return self.estimators[endpoint].estimate_batch(records, thetas)


@dataclass
class PlanQualityReport:
    """What one planning policy cost over a workload (Figures 11/12)."""

    num_queries: int = 0
    #: Records the driving indexes returned, summed over queries.
    driver_candidates: int = 0
    #: Queries whose driver is the predicate with the smallest exact
    #: standalone cardinality (ties broken by the query's predicate order).
    precision_hits: int = 0
    estimation_seconds: float = 0.0
    processing_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.estimation_seconds + self.processing_seconds

    @property
    def planning_precision(self) -> float:
        return self.precision_hits / self.num_queries if self.num_queries else 0.0


def plan_quality(
    catalog: AttributeCatalog, results: Sequence["QueryResult"]
) -> PlanQualityReport:
    """Aggregate executed plans into a :class:`PlanQualityReport`.

    The exact per-predicate cardinalities that decide the optimal driver come
    from the catalog's own indexes, outside every timed region.
    """
    report = PlanQualityReport()
    for result in results:
        plan = result.plan
        true_cardinalities = [
            catalog.get(p.attribute).selector.cardinality(p.record, p.theta)
            for p in plan.query.predicates
        ]
        # list.index(min) breaks ties by position, like the planner's argmin.
        optimal = plan.query.predicates[true_cardinalities.index(min(true_cardinalities))]
        report.num_queries += 1
        report.driver_candidates += result.driver_candidates
        report.precision_hits += int(plan.driver.predicate is optimal)
        report.estimation_seconds += plan.planning_seconds
        report.processing_seconds += result.execution_seconds
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
                SimilarityPredicate(attribute, vector, float(rng.uniform(low, high)))
            )
        queries.append(ConjunctiveQuery(predicates=predicates))
    return queries
