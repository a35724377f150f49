"""Correctness checks, run outside every timed phase.

The contract is the one of Berkholz et al. (PAPERS.md): the maintained answer
after any update sequence equals re-evaluation from scratch.  Here "from
scratch" is a :class:`~repro.selection.LinearScanSelector` over the mirror of
the relation that the request stream keeps with plain list operations.

Every check returns ``(attempted, failures)`` where ``failures`` is a list of
one-line descriptions; any failure makes the run incorrect.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.distances import get_distance
from repro.engine import ConjunctiveQuery, SimilarityQueryEngine
from repro.metrics import mean_q_error
from repro.selection import LinearScanSelector
from repro.sharding import ShardedSelector

from benchmarks.e2e import workloads as wl
from benchmarks.e2e.fixture import Fixture

Outcome = Tuple[int, List[str]]


def _scans(columns: wl.Columns) -> Dict[str, LinearScanSelector]:
    return {
        a.name: LinearScanSelector(columns.values[a.name], get_distance(a.distance))
        for a in wl.ATTRIBUTES
    }


def check_queries(
    engine: SimilarityQueryEngine, queries: Sequence[ConjunctiveQuery], columns: wl.Columns
) -> Outcome:
    """Engine answers must equal the intersection of linear scans, id for id."""
    scans = _scans(columns)
    failures: List[str] = []
    for query in queries:
        expected = None
        for predicate in query.predicates:
            matches = set(scans[predicate.attribute].query(predicate.record, predicate.theta))
            expected = matches if expected is None else expected & matches
        got = engine.execute(query).record_ids
        if got != sorted(expected):
            failures.append(
                f"{query!r}: engine returned {len(got)} ids, scan {len(expected)}"
            )
    return len(queries), failures


def _same_record(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def _leaf_selectors(selector) -> List:
    return selector.shards if isinstance(selector, ShardedSelector) else [selector]


def check_alignment(engine: SimilarityQueryEngine, columns: wl.Columns) -> Outcome:
    """After updates: every column equals the mirror row for row, and every
    index's delta bookkeeping adds up to the mirror's size."""
    failures: List[str] = []
    for attribute in wl.ATTRIBUTES:
        binding = engine.catalog.get(attribute.name)
        mirror = columns.values[attribute.name]
        held = list(binding.records)
        if len(held) != len(mirror):
            failures.append(f"{attribute.name}: engine holds {len(held)} rows, mirror {len(mirror)}")
        elif not all(_same_record(a, b) for a, b in zip(held, mirror)):
            failures.append(f"{attribute.name}: rows differ from the mirror")
        live = 0
        for leaf in _leaf_selectors(binding.selector):
            stats = leaf.delta_stats()
            live += stats["live"]
            if stats["physical"] - stats["tombstones"] != stats["live"] or stats["live"] != len(leaf):
                failures.append(f"{attribute.name}: inconsistent delta_stats {stats}")
        if live != len(mirror):
            failures.append(f"{attribute.name}: indexes hold {live} live rows, mirror {len(mirror)}")
    return len(wl.ATTRIBUTES), failures


def tombstone_share(engine: SimilarityQueryEngine) -> float:
    physical = tombstones = 0
    for binding in engine.catalog:
        for leaf in _leaf_selectors(binding.selector):
            stats = leaf.delta_stats()
            physical += stats["physical"]
            tombstones += stats["tombstones"]
    return tombstones / physical if physical else 0.0


def check_estimates(
    fixture: Fixture, requests: Sequence[Tuple[str, object, float]]
) -> Tuple[int, List[str], float]:
    """Served estimate vs exact cardinality on a seeded sample, and every
    curve behind it — per attribute, per part, per shard, merged — must be
    non-decreasing in θ.  Returns the sample's mean q-error as well."""
    service = fixture.service
    failures: List[str] = []
    estimated: List[float] = []
    actual: List[int] = []
    for attribute, record, theta in requests:
        estimated.append(service.estimate(attribute, record, theta))
        actual.append(fixture.selector(attribute).cardinality(record, theta))
        endpoints = [(attribute, record)]
        if fixture.engine is not None:
            binding = fixture.engine.catalog.get(attribute)
            endpoints += [(endpoint, record) for endpoint in binding.shard_endpoints]
            if binding.uses_gph:
                endpoints += [
                    (endpoint, np.asarray(record)[start:stop])
                    for endpoint, (start, stop) in zip(binding.part_endpoints, binding.selector.parts)
                ]
        for endpoint, probe in endpoints:
            curve = service.estimate_curve(endpoint, probe)
            if np.any(np.diff(curve) < -1e-9):
                failures.append(f"{endpoint}: curve decreases in θ")
    return len(requests), failures, mean_q_error(actual, estimated) if requests else 0.0


def driver_optimal_share(fixture: Fixture, queries: Sequence[ConjunctiveQuery]) -> float:
    """Share of conjunctions whose chosen driver had the smallest *actual*
    cardinality among the query's predicates."""
    engine = fixture.engine
    optimal = considered = 0
    for query in queries:
        if len(query.predicates) < 2:
            continue
        actual = {
            p.attribute: fixture.selector(p.attribute).cardinality(p.record, p.theta)
            for p in query.predicates
        }
        considered += 1
        optimal += actual[engine.explain(query).driver.attribute] == min(actual.values())
    return optimal / considered if considered else 0.0
