"""Telemetry under the process backend: counters recorded inside forked
children must merge back into the parent telemetry's registry (they used to
be dropped on the nursery floor), with results bit-identical to threads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry, default_registry
from repro.runtime import Runtime, fork_available
from repro.selection.edit_index import QGramEditSelector
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.selection.jaccard_index import PrefixFilterJaccardSelector
from repro.serving.telemetry import ServingTelemetry
from repro.sharding import ShardedSelector
from repro.sharding.selector import SHARD_POOL, SHARD_PROCESS_POOL

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)

RNG = np.random.default_rng(23)

NUM_SHARDS = 2  # two workers, two shards — every shard label must appear

WORKLOADS = {
    "hamming": (
        [row for row in RNG.integers(0, 2, size=(120, 48)).astype(np.uint8)],
        lambda recs: PackedHammingSelector(recs),
        10.0,
    ),
    "euclidean": (
        [row for row in RNG.normal(size=(100, 8))],
        lambda recs: BallIndexEuclideanSelector(recs),
        2.0,
    ),
    "jaccard": (
        [
            set(map(int, RNG.choice(60, size=int(RNG.integers(3, 12)), replace=False)))
            for _ in range(90)
        ],
        lambda recs: PrefixFilterJaccardSelector(recs),
        0.5,
    ),
    "edit": (
        ["similar", "silimar", "dissimilar", "select", "selects", "cardinal",
         "cardinality", "estimate", "estimator", "query"] * 8,
        lambda recs: QGramEditSelector(recs),
        2.0,
    ),
}


def _build(records, factory, backend, telemetry):
    return ShardedSelector(
        records,
        factory,
        num_shards=NUM_SHARDS,
        runtime=Runtime(telemetry=telemetry),
        backend=backend,
    )


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_child_counters_merge_into_parent_registry(kind, thread_fan_out):
    # ``thread_fan_out``: the comparison side runs its shard tasks on the
    # thread pool (these shards are far below the size at which it would).
    records, factory, threshold = WORKLOADS[kind]
    telemetry = ServingTelemetry()
    thread_telemetry = ServingTelemetry()
    process_side = _build(records, factory, "process", telemetry)
    thread_side = _build(records, factory, "thread", thread_telemetry)
    try:
        queries = records[:4]
        for query in queries:
            assert process_side.cardinality(query, threshold) == thread_side.cardinality(
                query, threshold
            )
            assert process_side.query(query, threshold) == thread_side.query(
                query, threshold
            )
        # It really ran on forked workers, not a silent thread fallback.
        stats = process_side.runtime.stats()
        assert stats[SHARD_PROCESS_POOL]["backend"] == "process"

        # The shard ops executed inside the children; their counters must now
        # be visible in the PARENT telemetry registry, per op and per shard.
        for op in ("cardinality", "query"):
            for shard in range(NUM_SHARDS):
                labels = {"op": op, "shard": shard}
                counter = telemetry.metrics.get("repro_shard_tasks_total", labels)
                assert counter is not None, f"missing child counter {labels}"
                assert counter.value == len(queries)
                histogram = telemetry.metrics.get("repro_shard_task_seconds", labels)
                assert isinstance(histogram, Histogram)
                assert histogram.count == len(queries)

        # ... and match what the thread backend recorded for the same work.
        for op in ("cardinality", "query"):
            for shard in range(NUM_SHARDS):
                labels = {"op": op, "shard": shard}
                assert (
                    telemetry.metrics.get("repro_shard_tasks_total", labels).value
                    == thread_telemetry.metrics.get(
                        "repro_shard_tasks_total", labels
                    ).value
                )

        # The pool itself reported parent-side task telemetry as usual: one
        # count, the same in the flat view, in the Prometheus text, and in
        # what the thread backend recorded for the same fan-out.
        fanout_tasks = len(queries) * 2 * NUM_SHARDS
        pool_stats = telemetry.endpoint(f"pool:{SHARD_PROCESS_POOL}")
        assert pool_stats.requests == fanout_tasks
        assert pool_stats.max_latency_seconds > 0.0
        assert thread_telemetry.endpoint(f"pool:{SHARD_POOL}").requests == fanout_tasks
        text = telemetry.to_prometheus()
        assert f'repro_pool_tasks_total{{pool="{SHARD_PROCESS_POOL}"}} {fanout_tasks}' in text
        assert (
            f'repro_pool_task_seconds_count{{pool="{SHARD_PROCESS_POOL}"}} {fanout_tasks}'
            in text
        )
        assert telemetry.snapshot()[f"pool:{SHARD_PROCESS_POOL}"]["requests"] == fanout_tasks
        assert telemetry.total.requests == 0  # fan-out tasks are not client requests
    finally:
        process_side.runtime.shutdown()
        thread_side.runtime.shutdown()


def test_merge_survives_a_registry_without_telemetry():
    """Pools without telemetry merge child metrics into the default registry
    instead of dropping them."""
    records, factory, threshold = WORKLOADS["hamming"]
    selector = ShardedSelector(
        records, factory, num_shards=NUM_SHARDS, runtime=Runtime(), backend="process"
    )
    baseline = {}
    for shard in range(NUM_SHARDS):
        labels = {"op": "cardinality", "shard": shard}
        existing = default_registry().get("repro_shard_tasks_total", labels)
        baseline[shard] = existing.value if existing is not None else 0.0
    try:
        selector.cardinality(records[0], threshold)
        for shard in range(NUM_SHARDS):
            labels = {"op": "cardinality", "shard": shard}
            counter = default_registry().get("repro_shard_tasks_total", labels)
            assert counter is not None
            assert counter.value == baseline[shard] + 1
    finally:
        selector.runtime.shutdown()


def test_merge_failures_are_counted_not_fatal():
    """A bucket-mismatched child histogram cannot kill the worker thread —
    the merge failure is itself a counter."""
    telemetry = ServingTelemetry()
    registry = telemetry.metrics
    # Pre-create the histogram identity with DIFFERENT buckets than the
    # child will ship back.
    registry.histogram(
        "repro_shard_task_seconds", {"op": "query", "shard": 0},
        buckets=(1.0, 2.0),
    )
    records, factory, threshold = WORKLOADS["hamming"]
    selector = _build(records, factory, "process", telemetry)
    try:
        # The query still completes and answers correctly.
        expected_ids = sorted(factory(records).query(records[0], threshold))
        assert sorted(selector.query(records[0], threshold)) == expected_ids
        failures = registry.get("repro_metrics_merge_failures_total")
        assert failures is not None and failures.value >= 1
    finally:
        selector.runtime.shutdown()
