"""The shard fan-out: one loop over the shards on the calling thread.

It answers exactly like the unsharded selector, counts every shard task once
per op and shard, and reports those counts to the registry its runtime's
telemetry owns — the engine's — and nothing to the process default registry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sampling import UniformSamplingEstimator
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.obs import default_registry
from repro.runtime import Runtime
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.serving.telemetry import ServingTelemetry
from repro.sharding import ShardedSelector


# --------------------------------------------------------------------------- #
# One answer, one set of metrics
# --------------------------------------------------------------------------- #
KINDS = {
    "hamming": (
        lambda rng, n: [r for r in rng.integers(0, 2, size=(n, 24)).astype(np.uint8)],
        PackedHammingSelector,
        [3.0, 7.0, 11.0],
    ),
    "euclidean": (
        lambda rng, n: [r for r in rng.normal(size=(n, 6))],
        BallIndexEuclideanSelector,
        [0.8, 1.9, 3.1],
    ),
}


def _run_op(selector, op, records, thetas):
    probes = records[:3]
    if op == "query":
        return [selector.query(probe, thetas[1]) for probe in probes]
    if op == "query_many":
        return selector.query_many(probes, thetas)
    if op == "cardinality":
        return [selector.cardinality(probe, thetas[1]) for probe in probes]
    return [selector.cardinality_curve(probe, thetas).tolist() for probe in probes]


def _shard_metric_counts(registry):
    """{(metric, op, shard): count} for every ``repro_shard_*`` series."""
    counts = {}
    for metric in registry.collect():
        if not metric.name.startswith("repro_shard_task"):
            continue
        labels = dict(metric.labels)
        exported = metric.export()
        value = exported["count"] if exported["type"] == "histogram" else exported["value"]
        counts[(metric.name, labels["op"], int(labels["shard"]))] = int(value)
    return counts


def _default_registry_shard_series():
    return _shard_metric_counts(default_registry())


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    num_shards=st.integers(min_value=1, max_value=6),
    op=st.sampled_from(["query", "query_many", "cardinality", "cardinality_curve"]),
    num_records=st.integers(min_value=12, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fan_out_equals_unsharded_with_exact_shard_metrics(
    kind, num_shards, op, num_records, seed
):
    make_records, selector_cls, thetas = KINDS[kind]
    records = make_records(np.random.default_rng(seed), num_records)
    before = _default_registry_shard_series()
    telemetry = ServingTelemetry()
    runtime = Runtime(telemetry=telemetry)
    selector = ShardedSelector(
        records,
        selector_cls,
        num_shards=num_shards,
        partitioner="round_robin",
        runtime=runtime,
    )
    answer = _run_op(selector, op, records, thetas)

    unsharded = selector_cls(records)
    if op == "query_many":
        expected = [unsharded.query(p, theta) for p, theta in zip(records[:3], thetas)]
    else:
        expected = _run_op(unsharded, op, records, thetas)
    calls = 1 if op == "query_many" else 3
    assert answer == expected
    assert _shard_metric_counts(telemetry.metrics) == {
        (name, op, shard): calls
        for name in ("repro_shard_tasks_total", "repro_shard_task_seconds")
        for shard in range(num_shards)
    }
    # An engine-less selector WITH a telemetry'd runtime leaks nothing into
    # the process default registry.
    assert _default_registry_shard_series() == before


# --------------------------------------------------------------------------- #
# One registry (the bug: inline tasks used to report to the default registry)
# --------------------------------------------------------------------------- #
class TestOneRegistry:
    def test_fan_out_reports_to_the_engine_registry_only(self):
        rng = np.random.default_rng(17)
        records = [row for row in rng.integers(0, 2, size=(48, 16)).astype(np.uint8)]
        before = _default_registry_shard_series()
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "vec",
            records,
            "hamming",
            lambda shard_records, shard: UniformSamplingEstimator(
                shard_records, "hamming", sample_ratio=0.5, seed=shard
            ),
            num_shards=4,
            partitioner="round_robin",
            theta_max=8.0,
        )
        queries = [SimilarityPredicate("vec", records[i], 5.0) for i in range(10)]
        engine.execute(queries[0])
        results = engine.execute_many(queries)

        unsharded = PackedHammingSelector(records)
        assert [result.record_ids for result in results] == [
            unsharded.query(query.record, 5.0) for query in queries
        ]
        assert _shard_metric_counts(engine.service.telemetry.metrics) == {
            (name, "query", shard): 11
            for name in ("repro_shard_tasks_total", "repro_shard_task_seconds")
            for shard in range(4)
        }
        assert _default_registry_shard_series() == before
