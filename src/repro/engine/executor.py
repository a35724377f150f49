"""Plan execution against the exact selection indexes, a batch at a time.

The executor is estimator-free.  Given a list of
:class:`~repro.engine.planner.QueryPlan` it answers the driving predicates in
**driver rounds**: the plans are grouped by driving attribute, and each
attribute answers all of its plans with one ``query_many`` call (one
``query_many`` per shard for a sharded driver, see
:meth:`~repro.sharding.ShardedSelector.query_many_with_counts`), except that
a plan with a GPH allocation runs its own ``verified_candidates`` and a round
holding one plan makes that plan's ``query`` (``query_with_counts``) call
alone.  It then verifies the residual predicates in **rounds**: round
``k`` takes every plan's ``k``-th residual (the plan's own order: ascending
rank, the residual that costs least per row it discards first) that still
has survivors, groups them by attribute, and makes one ``distances_at`` call
per attribute over all of its (query, row) pairs.  That call reads the
distances from the attribute's own index (XOR + popcount on the packed words
for Hamming; the DP over the stored code rows for the q-gram edit index; the
distance's ``pair_distances`` over the gathered rows otherwise; a sharded
index gathers every shard's input and runs the kernel once), each equal to
``cross_distances`` for its pair, and :func:`~repro.distances.base.within`
decides each pair against its own plan's θ, as the linear scan decides it.
A round holding one query is that query's call alone, with no pair arrays.
Results are therefore exact whatever the plan, the residual order and the
batch: planning and batching move only the cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..distances.base import within
from ..obs.trace import span
from ..selection import PigeonholeHammingSelector
from ..sharding import ShardedSelector
from .catalog import AttributeCatalog
from .planner import PlannedPredicate, QueryPlan


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
    #: The query's share of its driver round, split by the rows each plan's
    #: driver matched (a GPH plan: the candidates it verified) plus one, and
    #: of every verify call it joined, split by the rows it put in; over one
    #: ``execute`` call these sum to the call's execution time.
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
    """Runs plans; one instance per engine, stateless between batches."""

    def __init__(self, catalog: AttributeCatalog) -> None:
        self.catalog = catalog

    def execute(self, plans: Sequence[QueryPlan]) -> List[QueryResult]:
        """Answer every plan exactly: one :class:`QueryResult` per plan, in order."""
        plans = list(plans)
        results: List[QueryResult] = [None] * len(plans)  # type: ignore[list-item]
        surviving: List[np.ndarray] = [None] * len(plans)  # type: ignore[list-item]
        with span("query.execute", queries=len(plans)):
            mark = time.perf_counter()
            drivers: Dict[str, List[int]] = {}
            for index, plan in enumerate(plans):
                drivers.setdefault(plan.driver.attribute, []).append(index)
            for attribute, members in drivers.items():
                driven = self._drive(attribute, [plans[index] for index in members])
                now = time.perf_counter()
                weight_sum = sum(candidates + 1 for _, candidates, _ in driven)
                for index, (matches, candidates, shard_counts) in zip(members, driven):
                    surviving[index] = matches
                    results[index] = QueryResult(
                        plan=plans[index],
                        record_ids=[],
                        driver_candidates=candidates,
                        driver_actual=int(matches.size),
                        verification_examined=0,
                        execution_seconds=(now - mark) * (candidates + 1) / weight_sum,
                        shard_counts=shard_counts,
                    )
                mark = now

            for depth in range(max((len(plan.residuals) for plan in plans), default=0)):
                rounds: Dict[str, List[int]] = {}
                for index, plan in enumerate(plans):
                    if depth < len(plan.residuals) and surviving[index].size:
                        rounds.setdefault(plan.residuals[depth].attribute, []).append(index)
                for attribute, members in rounds.items():
                    candidates = [surviving[index] for index in members]
                    survivors = self._verify(
                        attribute, [plans[index].residuals[depth] for index in members], candidates
                    )
                    now = time.perf_counter()
                    pairs = sum(ids.size for ids in candidates)
                    for index, ids, kept in zip(members, candidates, survivors):
                        results[index].verification_examined += int(ids.size)
                        results[index].execution_seconds += (now - mark) * ids.size / pairs
                        surviving[index] = kept
                    mark = now

            for result, ids in zip(results, surviving):
                result.record_ids = ids.tolist()
                now = time.perf_counter()
                result.execution_seconds += now - mark
                mark = now
        return results

    def _drive(
        self, attribute: str, plans: List[QueryPlan]
    ) -> List[Tuple[np.ndarray, int, Optional[List[int]]]]:
        """``(matches, candidates, shard counts)`` of each plan's driving
        predicate on ``attribute``: its ascending int64 match ids, the rows
        its index verified, and the per-shard match counts of a sharded
        driver (``None`` otherwise).

        A plan with a GPH allocation is answered by its own
        ``verified_candidates`` call; the others by one ``query_many`` call
        (``query_many_with_counts`` on a sharded index), or by that plan's
        ``query`` (``query_with_counts``) when it is the only one."""
        selector = self.catalog.get(attribute).selector
        sharded = isinstance(selector, ShardedSelector)
        gph = isinstance(selector, PigeonholeHammingSelector)
        driven: List[Tuple[np.ndarray, int, Optional[List[int]]]] = [None] * len(plans)  # type: ignore[list-item]
        probed: List[int] = []
        with span("execute.driver", attribute=attribute, queries=len(plans)) as driver_span:
            for k, plan in enumerate(plans):
                if plan.allocation is not None and gph:
                    matches, candidates = selector.verified_candidates(
                        plan.driver.predicate.record, plan.driver.theta, allocation=plan.allocation
                    )
                    driven[k] = (np.asarray(matches, dtype=np.int64), candidates, None)
                else:
                    probed.append(k)
            records = [plans[k].driver.predicate.record for k in probed]
            thetas = [plans[k].driver.theta for k in probed]
            counts: Iterable[Optional[List[int]]] = repeat(None)
            if len(probed) > 1 and sharded:
                answers, counts = selector.query_many_with_counts(records, thetas)
            elif len(probed) > 1:
                answers = selector.query_many(records, thetas)
            elif probed and sharded:
                matches, shard_counts = selector.query_with_counts(records[0], thetas[0])
                answers, counts = [matches], [shard_counts]
            else:
                answers = [selector.query(record, theta) for record, theta in zip(records, thetas)]
            for k, matches, shard_counts in zip(probed, answers, counts):
                matches = np.asarray(matches, dtype=np.int64)
                driven[k] = (matches, int(matches.size), shard_counts)
            driver_span.set(
                actual=sum(int(matches.size) for matches, _, _ in driven),
                candidates=sum(candidates for _, candidates, _ in driven),
                shards=selector.num_shards if sharded else 1,
            )
        return driven

    def _verify(
        self, attribute: str, residuals: List[PlannedPredicate], candidates: List[np.ndarray]
    ) -> List[np.ndarray]:
        """The candidates of each residual that pass it: one ``distances_at``
        call over every (query, candidate) pair of ``attribute``, each pair
        decided against its own residual's θ."""
        selector = self.catalog.get(attribute).selector
        with span("execute.verify", attribute=attribute, queries=len(residuals)) as verify_span:
            if len(residuals) == 1:
                (residual,), (ids,) = residuals, candidates
                distances = selector.distances_at([residual.predicate.record], ids)
                survivors = [ids[within(distances, residual.theta)]]
            else:
                sizes = [ids.size for ids in candidates]
                distances = selector.distances_at(
                    [residual.predicate.record for residual in residuals],
                    np.concatenate(candidates),
                    np.repeat(np.arange(len(residuals)), sizes),
                )
                keep = within(distances, np.repeat([residual.theta for residual in residuals], sizes))
                survivors = [
                    ids[kept] for ids, kept in zip(candidates, np.split(keep, np.cumsum(sizes)[:-1]))
                ]
            verify_span.set(
                candidates_in=int(distances.size),
                survivors=sum(int(ids.size) for ids in survivors),
            )
        return survivors
