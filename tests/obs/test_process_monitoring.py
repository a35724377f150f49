"""Monitoring across the process backend: series scraped from child-merged
counters.

Mirrors :mod:`tests.obs.test_process_telemetry` — the same four distances,
two forked shards each — but pins the *monitoring* surface: the parent
scrape must see child work as counter growth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import TimeSeriesStore, metric_key
from repro.runtime import Runtime, fork_available
from repro.selection.edit_index import QGramEditSelector
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.selection.jaccard_index import PrefixFilterJaccardSelector
from repro.serving.telemetry import ServingTelemetry
from repro.sharding import ShardedSelector
from repro.sharding.selector import SHARD_PROCESS_POOL

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)

RNG = np.random.default_rng(31)

NUM_SHARDS = 2
NUM_QUERIES = 4

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


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_child_work_lands_in_scraped_series(kind):
    """Scrapes of the parent registry bracket the workload; the increase on
    every per-shard counter series equals the child tasks that ran."""
    records, factory, threshold = WORKLOADS[kind]
    telemetry = ServingTelemetry()
    selector = ShardedSelector(
        records,
        factory,
        num_shards=NUM_SHARDS,
        runtime=Runtime(telemetry=telemetry),
        backend="process",
    )
    store = TimeSeriesStore()
    try:
        # One warm query materialises the per-shard counters so the baseline
        # scrape captures a starting point for every series.
        selector.cardinality(records[0], threshold)
        store.sample_registry(telemetry.metrics, now=0.0)
        for query in records[:NUM_QUERIES]:
            selector.cardinality(query, threshold)
        store.sample_registry(telemetry.metrics, now=60.0)
        assert selector.runtime.stats()[SHARD_PROCESS_POOL]["backend"] == "process"
    finally:
        selector.runtime.shutdown()

    for shard in range(NUM_SHARDS):
        key = metric_key(
            "repro_shard_tasks_total", {"op": "cardinality", "shard": shard}
        )
        assert store.increase(key, 120.0, now=60.0) == float(NUM_QUERIES), key
        latency_key = metric_key(
            "repro_shard_task_seconds", {"op": "cardinality", "shard": shard}
        )
        assert store.get(latency_key).kind == "histogram"
        delta = store.get(latency_key).delta(120.0, now=60.0)
        assert delta["count"] == NUM_QUERIES
