"""Pipelined ``execute_many`` equivalence: pooled execution changes the
wall-clock, never the answers.

The engine's parallel path must be bit-identical to sequential execution on
all four distances — results, plans, feedback windows, and drift telemetry —
including when the driving attribute fans out across shards on the same
runtime's pools.  A pool is used only when it pays, so the tests that are
about the pooled paths reach them through the decisions' inputs: a
``backend="process"`` attribute makes ``execute_many`` pipeline, the
``thread_fan_out`` fixture makes shard fan-outs dispatch to threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.sampling import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.engine.engine import pipelines_execution
from repro.runtime import Runtime, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)

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


def _build_engine(datasets, execute_workers=4, process_sharded=()):
    """Four attributes, one per distance; those named in ``process_sharded``
    live on two ``backend="process"`` shards — the input that makes
    ``execute_many`` pipeline."""
    engine = SimilarityQueryEngine(execute_workers=execute_workers)
    for name in DISTANCES:
        dataset = datasets[name]
        if name in process_sharded:
            engine.register_sharded_attribute(
                name,
                dataset.records,
                name,
                lambda records, shard, name=name: UniformSamplingEstimator(
                    records, name, sample_ratio=0.4, seed=3 + shard
                ),
                num_shards=2,
                theta_max=dataset.theta_max,
                backend="process",
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


class TestPipeliningDecision:
    @pytest.mark.parametrize(
        "parallel, execute_workers, num_queries, waits_outside, expected",
        [
            # Only a batch that waits on worker processes is pipelined ...
            (True, 4, 32, True, True),
            (True, 2, 2, True, True),
            # ... in-interpreter execution never is, whatever the batch,
            (True, 4, 32, False, False),
            (True, 4, 2, False, False),
            # ... nor a batch of one, a one-worker engine, or parallel=False.
            (True, 4, 1, True, False),
            (True, 4, 0, True, False),
            (True, 1, 32, True, False),
            (False, 4, 32, True, False),
            (False, 4, 32, False, False),
        ],
    )
    def test_pipelines_execution(
        self, parallel, execute_workers, num_queries, waits_outside, expected
    ):
        assert (
            pipelines_execution(parallel, execute_workers, num_queries, waits_outside)
            is expected
        )

    @pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
    def test_in_process_batch_of_32_touches_no_pool(self, datasets, sharded):
        """At this size neither site pays, so neither dispatches: 32 queries
        through ``execute_many`` submit nothing and create no pool."""
        dataset = datasets["hamming"]
        engine = SimilarityQueryEngine(execute_workers=4)
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
        results = engine.execute_many(queries)
        assert len(results) == 32 and all(result.record_ids for result in results)
        assert engine.runtime.pool_names() == []
        assert engine.runtime.stats() == {}
        assert not [
            name for name in engine.service.telemetry.snapshot() if name.startswith("pool:")
        ]
        if sharded:
            stats = engine.catalog.get("vec").selector.stats()
            assert stats["last_fan_out"] == "inline"
            report = engine.health_report()
            assert report.attributes["vec"]["fan_out"] == "inline"
            assert "fan_out=inline" in report.describe()


class TestBitIdenticalToSequential:
    @needs_fork
    def test_four_distance_workload(self, datasets):
        sequential_engine = _build_engine(datasets, process_sharded=("hamming",))
        parallel_engine = _build_engine(datasets, process_sharded=("hamming",))
        queries = _queries(datasets)
        try:
            sequential = sequential_engine.execute_many(queries, parallel=False)
            parallel = parallel_engine.execute_many(queries)
            # The parallel engine actually used its pool.
            pool_stats = parallel_engine.runtime.stats()["engine-execute"]
            assert pool_stats["completed"] == len(queries)
            assert "engine-execute" not in sequential_engine.runtime.pool_names()
        finally:
            sequential_engine.runtime.shutdown()
            parallel_engine.runtime.shutdown()
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
        assert "engine-execute" not in engine.runtime.pool_names()

    def test_workers_equal_one_disables_the_pool(self, datasets):
        engine = _build_engine(datasets, execute_workers=1)
        engine.execute_many(_queries(datasets))
        assert engine.runtime.pool_names() == []


class TestShardedDriverOnSharedRuntime:
    @staticmethod
    def _build(dataset, backend="thread"):
        engine = SimilarityQueryEngine(execute_workers=4)
        engine.register_sharded_attribute(
            "vec",
            dataset.records,
            "hamming",
            lambda records, shard: UniformSamplingEstimator(
                records, "hamming", sample_ratio=0.5, seed=shard
            ),
            num_shards=3,
            theta_max=dataset.theta_max,
            backend=backend,
        )
        return engine

    @staticmethod
    def _shard_queries(dataset):
        return [
            SimilarityPredicate("vec", dataset.records[i], 6.0) for i in (2, 9, 31, 44)
        ]

    @needs_fork
    def test_sharded_fanout_and_pipelined_execution_share_one_runtime(self, datasets):
        dataset = datasets["hamming"]
        queries = self._shard_queries(dataset)
        sequential = self._build(dataset).execute_many(queries, parallel=False)
        parallel_engine = self._build(dataset, backend="process")
        try:
            parallel = parallel_engine.execute_many(queries)
            assert_result_lists_equal(sequential, parallel)
            for result in parallel:
                assert result.shard_counts is not None
                assert sum(result.shard_counts) == result.driver_actual

            # Both concurrency sites live on the engine's ONE runtime, and the
            # pools report through the service's telemetry.
            assert set(parallel_engine.runtime.pool_names()) == {
                "engine-execute",
                "shards-proc",
            }
            snapshot = parallel_engine.service.telemetry.snapshot()
            assert snapshot["pool:engine-execute"]["requests"] == len(queries)
            assert snapshot["pool:shards-proc"]["requests"] >= 3 * len(queries)
            assert parallel_engine.catalog.get("vec").selector.stats()[
                "last_fan_out"
            ] == "process"
        finally:
            parallel_engine.runtime.shutdown()

    def test_thread_fanout_runs_on_the_engine_runtime_without_pipelining(
        self, datasets, thread_fan_out
    ):
        """Thread shard fan-out stays in the interpreter: its tasks run on the
        engine runtime's ``shards`` pool, and nothing is pipelined."""
        dataset = datasets["hamming"]
        queries = self._shard_queries(dataset)
        sequential = self._build(dataset).execute_many(queries, parallel=False)
        engine = self._build(dataset)
        assert_result_lists_equal(sequential, engine.execute_many(queries))
        assert engine.runtime.pool_names() == ["shards"]
        snapshot = engine.service.telemetry.snapshot()
        assert snapshot["pool:shards"]["requests"] == 3 * len(queries)
        assert engine.catalog.get("vec").selector.stats()["last_fan_out"] == "thread"

    def test_injected_runtime_is_shared_not_owned(self, datasets):
        runtime = Runtime()
        engine = _build_engine(datasets)
        other = SimilarityQueryEngine(runtime=runtime)
        assert other.runtime is runtime
        assert engine.runtime is not runtime
