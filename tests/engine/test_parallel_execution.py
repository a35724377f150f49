"""``execute_many`` equivalence: the bulk path changes the wall-clock, never
the answers.

One batched ``execute_many`` must be bit-identical to a loop of ``execute``
on all four distances — results, plans, feedback windows, and drift
telemetry — including when the driving attribute fans out across shards.
Both run on the caller: drivers in order, and the shard fan-out as a loop.
The batch verifies its residuals in rounds, one kernel call per attribute
per round; ``TestRoundsEqualOneQueryAtATime`` builds batches that mix
drivers, residual orders, a GPH allocation, a repeated query, a driver that
matches nothing, tombstoned indexes and θ a hair either side of an observed
distance.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.sampling import UniformSamplingEstimator
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.selection import LinearScanSelector, PigeonholeHammingSelector

DISTANCES = ["hamming", "edit", "jaccard", "euclidean"]
THETAS = {"hamming": 5.0, "edit": 3.0, "jaccard": 0.4, "euclidean": 1.5}


@pytest.fixture(scope="module")
def datasets():
    from repro.datasets import (
        make_binary_dataset,
        make_set_dataset,
        make_string_dataset,
        make_vector_dataset,
    )

    n = 180
    return {
        "hamming": make_binary_dataset(
            num_records=n, dimension=32, num_clusters=4, flip_probability=0.1,
            theta_max=12, seed=13, name="HM-Par",
        ),
        "edit": make_string_dataset(
            num_records=n, num_clusters=4, base_length=10, max_mutations=5,
            theta_max=6, seed=13, name="ED-Par",
        ),
        "jaccard": make_set_dataset(
            num_records=n, universe_size=60, num_clusters=4, base_set_size=12,
            theta_max=0.8, seed=13, name="JC-Par",
        ),
        "euclidean": make_vector_dataset(
            num_records=n, dimension=8, num_clusters=4, theta_max=4.0,
            seed=13, name="EU-Par",
        ),
    }


def _build_engine(datasets, sharded=()):
    """Four attributes, one per distance; those named in ``sharded`` live on
    two shards."""
    engine = SimilarityQueryEngine()
    for name in DISTANCES:
        dataset = datasets[name]
        if name in sharded:
            engine.register_sharded_attribute(
                name,
                dataset.records,
                name,
                lambda records, shard, name=name: UniformSamplingEstimator(
                    records, name, sample_ratio=0.4, seed=3 + shard
                ),
                num_shards=2,
                theta_max=dataset.theta_max,
            )
            continue
        engine.register_attribute(
            name,
            dataset.records,
            name,
            UniformSamplingEstimator(dataset.records, name, sample_ratio=0.4, seed=3),
            theta_max=dataset.theta_max,
        )
    return engine


def _queries(datasets):
    queries = [
        SimilarityPredicate(name, datasets[name].records[index], THETAS[name])
        for index in (1, 7, 23, 40)
        for name in DISTANCES
    ]
    queries.append(
        ConjunctiveQuery(
            [
                SimilarityPredicate("hamming", datasets["hamming"].records[3], 6.0),
                SimilarityPredicate("jaccard", datasets["jaccard"].records[3], 0.5),
            ]
        )
    )
    return queries


def assert_result_lists_equal(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.record_ids == b.record_ids
        assert a.driver_actual == b.driver_actual
        assert a.driver_candidates == b.driver_candidates
        assert a.verification_examined == b.verification_examined
        assert a.shard_counts == b.shard_counts
        assert a.plan.driver.attribute == b.plan.driver.attribute
        assert (
            a.plan.driver.estimated_cardinality == b.plan.driver.estimated_cardinality
        )
        assert [p.attribute for p in a.plan.residuals] == [
            p.attribute for p in b.plan.residuals
        ]


class TestNoDispatchBelowTheFloor:
    @pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
    def test_in_process_batch_of_32_touches_no_pool(self, datasets, sharded):
        """32 queries through ``execute_many`` start no thread: plans and
        shard fan-outs both run on the caller."""
        dataset = datasets["hamming"]
        engine = SimilarityQueryEngine()
        if sharded:
            engine.register_sharded_attribute(
                "vec",
                dataset.records,
                "hamming",
                lambda records, shard: UniformSamplingEstimator(
                    records, "hamming", sample_ratio=0.5, seed=shard
                ),
                num_shards=4,
                theta_max=dataset.theta_max,
            )
        else:
            engine.register_attribute(
                "vec",
                dataset.records,
                "hamming",
                UniformSamplingEstimator(
                    dataset.records, "hamming", sample_ratio=0.5, seed=3
                ),
                theta_max=dataset.theta_max,
            )
        queries = [
            SimilarityPredicate("vec", dataset.records[i], 6.0) for i in range(32)
        ]
        threads = threading.active_count()
        results = engine.execute_many(queries)
        assert len(results) == 32 and all(result.record_ids for result in results)
        assert threading.active_count() == threads
        assert engine.runtime.stats() == {}
        if sharded:
            report = engine.health_report()
            assert report.attributes["vec"]["shards"] == 4
            assert "shards=4" in report.describe()
            assert "fan_out" not in report.describe()


class TestBitIdenticalToSequential:
    def test_four_distance_workload(self, datasets):
        sequential_engine = _build_engine(datasets, sharded=("hamming",))
        parallel_engine = _build_engine(datasets, sharded=("hamming",))
        queries = _queries(datasets)
        sequential = [sequential_engine.execute(query) for query in queries]
        parallel = parallel_engine.execute_many(queries)
        assert_result_lists_equal(sequential, parallel)

        # Feedback state is identical too: same windows, same observations.
        for name in DISTANCES:
            assert list(sequential_engine.feedback._windows.get(name, [])) == list(
                parallel_engine.feedback._windows.get(name, [])
            )
            assert (
                sequential_engine.service.telemetry.endpoint(name).observations
                == parallel_engine.service.telemetry.endpoint(name).observations
            )
        assert len(sequential_engine.feedback.events) == len(
            parallel_engine.feedback.events
        )

    def test_repeated_workload_hits_the_warm_cache_identically(self, datasets):
        engine = _build_engine(datasets)
        queries = _queries(datasets)
        first = engine.execute_many(queries)
        hits_before = engine.service.telemetry.endpoint("hamming").cache_hits
        second = engine.execute_many(queries)
        assert_result_lists_equal(first, second)
        assert engine.service.telemetry.endpoint("hamming").cache_hits > hits_before

    def test_single_query_and_empty_workload_stay_sequential(self, datasets):
        engine = _build_engine(datasets)
        assert engine.execute_many([]) == []
        query = SimilarityPredicate("hamming", datasets["hamming"].records[2], 5.0)
        result = engine.execute(query)
        assert result.record_ids  # the record itself at least


class TestShardedDriverOnSharedRuntime:
    @staticmethod
    def _build(dataset):
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "vec",
            dataset.records,
            "hamming",
            lambda records, shard: UniformSamplingEstimator(
                records, "hamming", sample_ratio=0.5, seed=shard
            ),
            num_shards=3,
            theta_max=dataset.theta_max,
        )
        return engine

    @staticmethod
    def _shard_queries(dataset):
        return [
            SimilarityPredicate("vec", dataset.records[i], 6.0) for i in (2, 9, 31, 44)
        ]

    def test_sharded_fanout_reports_to_the_engine_runtime_without_pipelining(
        self, datasets
    ):
        """The shard fan-out runs on the caller, one task per shard and query,
        query after query: nothing pipelined, no thread started."""
        dataset = datasets["hamming"]
        queries = self._shard_queries(dataset)
        sequential_engine = self._build(dataset)
        sequential = [sequential_engine.execute(query) for query in queries]
        engine = self._build(dataset)
        calls = []
        for shard_id, shard in enumerate(engine.catalog.get("vec").selector.shards):
            def counted(record, threshold, _query=shard.query, _shard_id=shard_id):
                calls.append((_shard_id, threading.get_ident()))
                return _query(record, threshold)

            shard.query = counted
        assert_result_lists_equal(sequential, engine.execute_many(queries))
        assert calls == [
            (shard_id, threading.get_ident())
            for _ in queries
            for shard_id in range(3)
        ]


HAIR = 5e-13


def _mixed_engine(datasets):
    """GPH Hamming, edit on two shards, Jaccard and Euclidean; every attribute
    has rows deleted (tombstoned, not compacted) before any query runs."""
    engine = SimilarityQueryEngine()
    for name in DISTANCES:
        dataset = datasets[name]
        if name == "edit":
            engine.register_sharded_attribute(
                name,
                dataset.records,
                name,
                lambda records, shard: UniformSamplingEstimator(
                    records, "edit", sample_ratio=0.4, seed=3 + shard
                ),
                num_shards=2,
                theta_max=dataset.theta_max,
            )
            continue
        engine.register_attribute(
            name,
            dataset.records,
            name,
            UniformSamplingEstimator(dataset.records, name, sample_ratio=0.4, seed=3),
            selector=PigeonholeHammingSelector(dataset.records, part_size=8)
            if name == "hamming" else None,
            theta_max=dataset.theta_max,
        )
    for name in DISTANCES:
        engine.apply_update(name, UpdateOperation("delete", [0, 5, 17, 60, 61, 150]))
        selector = engine.catalog.get(name).selector
        units = getattr(selector, "shards", [selector])
        assert sum(unit.delta_stats()["tombstones"] for unit in units) == 6
    return engine


def _live(engine, name):
    return engine.catalog.get(name).selector.dataset


def _mixed_queries(engine):
    """Conjunctions over every attribute at varied θ (varied drivers and
    residual orders), a lone GPH predicate, one query twice, a conjunction
    whose every predicate matches nothing, and Jaccard / Euclidean θ on an
    observed distance and a hair either side of it."""
    live = {name: _live(engine, name) for name in DISTANCES}
    queries = []
    for row, scale in ((1, 0.5), (8, 1.0), (23, 1.6), (40, 0.8), (77, 2.2), (90, 1.3)):
        queries.append(ConjunctiveQuery([
            SimilarityPredicate(name, live[name][row], THETAS[name] * factor * scale)
            for name, factor in zip(DISTANCES, (1.4, 0.6, 1.0, 1.2))
        ]))
    queries.append(SimilarityPredicate("hamming", live["hamming"][4], 6.0))
    queries.append(queries[1])
    queries.append(ConjunctiveQuery([
        SimilarityPredicate("hamming", 1 - live["hamming"][2], 0.0),
        SimilarityPredicate("edit", "qqqqqqqqqqqqqqqqqqqqqqqqq", 0.0),
        SimilarityPredicate("jaccard", frozenset({10_001, 10_002}), 0.0),
        SimilarityPredicate("euclidean", live["euclidean"][2] + 1e3, 0.0),
    ]))
    for row in (12, 33):
        # θ on the distance to a row the Hamming predicate admits, so the
        # row on the boundary reaches the residual verify when Hamming drives.
        near = np.flatnonzero(
            get_distance("hamming").distances_to(live["hamming"][row], live["hamming"]) <= 5
        )
        for name in ("jaccard", "euclidean"):
            distances = get_distance(name).distances_to(live[name][row], live[name])
            observed = float(np.sort(distances[near])[len(near) // 2])
            for delta in (-HAIR, 0.0, HAIR):
                queries.append(ConjunctiveQuery([
                    SimilarityPredicate("hamming", live["hamming"][row], 5.0),
                    SimilarityPredicate(name, live[name][row], observed + delta),
                ]))
    return queries


def _plan_fields(plan):
    return (
        plan.driver.attribute,
        plan.driver.theta,
        plan.driver.estimated_cardinality,
        [(p.attribute, p.theta, p.estimated_cardinality) for p in plan.residuals],
        plan.allocation,
        plan.estimated_candidates,
        plan.estimated_cost,
        plan.driver_shards,
    )


def assert_field_for_field(loop, batch):
    assert len(loop) == len(batch)
    for a, b in zip(loop, batch):
        assert a.record_ids == b.record_ids
        assert a.driver_candidates == b.driver_candidates
        assert a.driver_actual == b.driver_actual
        assert a.verification_examined == b.verification_examined
        assert a.shard_counts == b.shard_counts
        assert _plan_fields(a.plan) == _plan_fields(b.plan)


def _truth(engine, query):
    expected = None
    for predicate in query.predicates:
        rows = _live(engine, predicate.attribute)
        matches = set(
            LinearScanSelector(rows, get_distance(predicate.attribute)).query(
                predicate.record, predicate.theta
            )
        )
        expected = matches if expected is None else expected & matches
    return sorted(expected)


class TestRoundsEqualOneQueryAtATime:
    def test_execute_many_equals_a_loop_of_execute(self, datasets):
        loop_engine = _mixed_engine(datasets)
        batch_engine = _mixed_engine(datasets)
        queries = _mixed_queries(loop_engine)
        loop = [loop_engine.execute(query) for query in queries]
        batch = batch_engine.execute_many(queries)
        assert_field_for_field(loop, batch)
        for result in batch:
            assert result.record_ids == _truth(batch_engine, result.plan.query)

        endpoints = {batch_engine.catalog.get(name).endpoint for name in DISTANCES}
        for endpoint in endpoints:
            assert list(loop_engine.feedback._windows.get(endpoint, [])) == list(
                batch_engine.feedback._windows.get(endpoint, [])
            )
            assert (
                loop_engine.service.telemetry.endpoint(endpoint).observations
                == batch_engine.service.telemetry.endpoint(endpoint).observations
            )
        assert [(e.endpoint, e.q_error) for e in loop_engine.feedback.events] == [
            (e.endpoint, e.q_error) for e in batch_engine.feedback.events
        ]

        # The batch holds what the rounds must get right.
        plans = [result.plan for result in batch]
        assert len({plan.driver.attribute for plan in plans}) >= 3
        orders = {tuple(p.attribute for p in plan.residuals) for plan in plans}
        assert len({order for order in orders if len(order) >= 2}) >= 2
        assert any(plan.allocation is not None and plan.driver.attribute == "hamming" for plan in plans)
        assert any(result.driver_actual == 0 for result in batch)
        assert sum(result.verification_examined > 0 for result in batch) >= 8
        # Execution time is split over the batch: every query has a share.
        assert all(result.execution_seconds > 0.0 for result in batch)

    def test_forced_drivers_and_orders_in_one_round(self, datasets):
        """Every predicate of every conjunction drives in turn, with the
        others as residuals in two orders, all in one executor call: a
        round holds many queries per attribute, with their own θ (also a
        hair either side of an observed distance), and each query equals its
        own one-plan call."""
        engine = _mixed_engine(datasets)
        queries = [query for query in _mixed_queries(engine) if isinstance(query, ConjunctiveQuery)]
        plans = []
        for plan in engine.planner.plan_many(queries):
            predicates = [plan.driver, *plan.residuals]
            for driver in predicates:
                rest = [p for p in predicates if p is not driver]
                for residuals in (rest, rest[::-1]):
                    plans.append(replace(plan, driver=driver, residuals=residuals, allocation=None))
        batch = engine.executor.execute(plans)
        loop = [engine.executor.execute([plan])[0] for plan in plans]
        assert_field_for_field(loop, batch)
        for result in batch:
            assert result.record_ids == _truth(engine, result.plan.query)

    def test_one_plan_and_no_plans(self, datasets):
        engine = _mixed_engine(datasets)
        assert engine.executor.execute([]) == []
        (plan,) = engine.planner.plan_many(_mixed_queries(engine)[:1])
        (result,) = engine.executor.execute([plan])
        assert result.record_ids == _truth(engine, plan.query)
