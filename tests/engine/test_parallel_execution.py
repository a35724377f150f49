"""``execute_many`` equivalence: the bulk path changes the wall-clock, never
the answers.

One batched ``execute_many`` must be bit-identical to a loop of ``execute``
on all four distances — results, plans, feedback windows, and drift
telemetry — including when the driving attribute fans out across shards.
Both run on the caller: plans in order, and the shard fan-out as a loop.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.sampling import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine

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
        """The shard fan-out runs on the caller under the engine runtime's
        metrics sink: one task per shard and query counted in the engine's
        registry, nothing pipelined."""
        dataset = datasets["hamming"]
        queries = self._shard_queries(dataset)
        sequential_engine = self._build(dataset)
        sequential = [sequential_engine.execute(query) for query in queries]
        engine = self._build(dataset)
        assert_result_lists_equal(sequential, engine.execute_many(queries))
        tasks = sum(
            metric.value
            for metric in engine.service.telemetry.metrics.collect()
            if metric.name == "repro_shard_tasks_total"
        )
        assert tasks == 3 * len(queries)

    def test_sharded_selector_shares_the_engine_runtime(self, datasets):
        engine = self._build(datasets["hamming"])
        other = self._build(datasets["hamming"])
        assert engine.catalog.get("vec").selector.runtime is engine.runtime
        assert engine.runtime.telemetry is engine.service.telemetry
        assert other.runtime is not engine.runtime
