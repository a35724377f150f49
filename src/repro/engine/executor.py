"""Plan execution against the exact selection indexes.

The executor is estimator-free: given a :class:`~repro.engine.planner.QueryPlan`
it answers the driving predicate with the attribute's exact index (using the
plan's GPH allocation when present) and verifies residual predicates over the
shrinking candidate set — one ``distances_at`` call per residual, which reads
the distances from the residual's own index (XOR + popcount on the packed
words for Hamming; ``cross_distances`` over the gathered rows otherwise) and
equals ``distances_to``, decided by :func:`~repro.distances.base.within` as
the linear scan decides them.  Results are therefore exact whatever the plan;
planning only moves the cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..distances.base import within
from ..obs.trace import span
from ..selection import PigeonholeHammingSelector
from ..sharding import ShardedSelector
from .catalog import AttributeCatalog
from .planner import QueryPlan


@dataclass
class QueryResult:
    """Exact answer of one query plus the cost the plan actually incurred."""

    plan: QueryPlan
    record_ids: List[int]
    #: Records the driving index had to verify (GPH candidate-set size for
    #: pigeonhole drivers, otherwise the driver's match count).
    driver_candidates: int
    #: Exact cardinality of the driving predicate alone — the observation the
    #: feedback loop compares against the driver's estimate.
    driver_actual: int
    #: Records examined by residual verification, summed over stages.
    verification_examined: int
    execution_seconds: float = 0.0
    #: Per-shard driver match counts when the driving attribute is sharded
    #: (``sum(shard_counts) == driver_actual``); ``None`` otherwise.
    shard_counts: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def cardinality(self) -> int:
        return len(self.record_ids)


class QueryExecutor:
    """Runs plans; one instance per engine, stateless between queries."""

    def __init__(self, catalog: AttributeCatalog) -> None:
        self.catalog = catalog

    def execute(self, plan: QueryPlan) -> QueryResult:
        start = time.perf_counter()
        driver_binding = self.catalog.get(plan.driver.attribute)
        driver_predicate = plan.driver.predicate

        with span("query.execute", driver=plan.driver.attribute):
            shard_counts: Optional[List[int]] = None
            with span(
                "execute.driver", attribute=plan.driver.attribute
            ) as driver_span:
                if plan.allocation is not None and isinstance(
                    driver_binding.selector, PigeonholeHammingSelector
                ):
                    matches, driver_candidates = (
                        driver_binding.selector.verified_candidates(
                            driver_predicate.record,
                            driver_predicate.theta,
                            allocation=plan.allocation,
                        )
                    )
                elif isinstance(driver_binding.selector, ShardedSelector):
                    # Fan-out across shard indexes; per-shard counts
                    # are the observations a per-shard feedback loop would
                    # consume.
                    matches, shard_counts = (
                        driver_binding.selector.query_with_counts(
                            driver_predicate.record, driver_predicate.theta
                        )
                    )
                    driver_candidates = len(matches)
                else:
                    matches = driver_binding.selector.query(
                        driver_predicate.record, driver_predicate.theta
                    )
                    driver_candidates = len(matches)
                driver_actual = len(matches)
                driver_span.set(
                    actual=driver_actual,
                    candidates=driver_candidates,
                    shards=len(shard_counts) if shard_counts is not None else 1,
                )

            surviving = np.asarray(matches, dtype=np.int64)
            verification_examined = 0
            for planned in plan.residuals:
                if surviving.size == 0:
                    break
                with span(
                    "execute.verify", attribute=planned.attribute
                ) as verify_span:
                    candidates_in = int(surviving.size)
                    verification_examined += candidates_in
                    distances = self.catalog.get(planned.attribute).selector.distances_at(
                        planned.predicate.record, surviving
                    )
                    surviving = surviving[within(distances, planned.theta)]
                    verify_span.set(
                        candidates_in=candidates_in, survivors=int(surviving.size)
                    )

        return QueryResult(
            plan=plan,
            record_ids=[int(record_id) for record_id in surviving],
            driver_candidates=driver_candidates,
            driver_actual=driver_actual,
            verification_examined=verification_examined,
            execution_seconds=time.perf_counter() - start,
            shard_counts=shard_counts,
        )
