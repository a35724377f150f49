"""The shard fan-out: one loop over the shards on the calling thread.

It answers exactly like the unsharded selector, alone and under an engine.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sampling import UniformSamplingEstimator
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.sharding import ShardedSelector


# --------------------------------------------------------------------------- #
# One answer
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
    if op == "cardinality":
        return [selector.cardinality(probe, thetas[1]) for probe in probes]
    return [selector.cardinality_curve(probe, thetas).tolist() for probe in probes]


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    num_shards=st.integers(min_value=1, max_value=6),
    op=st.sampled_from(["query", "cardinality", "cardinality_curve"]),
    num_records=st.integers(min_value=12, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fan_out_equals_unsharded(kind, num_shards, op, num_records, seed):
    make_records, selector_cls, thetas = KINDS[kind]
    records = make_records(np.random.default_rng(seed), num_records)
    selector = ShardedSelector(records, selector_cls, num_shards=num_shards)
    answer = _run_op(selector, op, records, thetas)

    unsharded = selector_cls(records)
    assert answer == _run_op(unsharded, op, records, thetas)


# --------------------------------------------------------------------------- #
# Under an engine
# --------------------------------------------------------------------------- #
class TestEngineFanOut:
    def test_engine_answers_equal_the_unsharded_selector(self):
        rng = np.random.default_rng(17)
        records = [row for row in rng.integers(0, 2, size=(48, 16)).astype(np.uint8)]
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "vec",
            records,
            "hamming",
            lambda shard_records, shard: UniformSamplingEstimator(
                shard_records, "hamming", sample_ratio=0.5, seed=shard
            ),
            num_shards=4,
            theta_max=8.0,
        )
        queries = [SimilarityPredicate("vec", records[i], 5.0) for i in range(10)]
        engine.execute(queries[0])
        results = engine.execute_many(queries)

        unsharded = PackedHammingSelector(records)
        assert [result.record_ids for result in results] == [
            unsharded.query(query.record, 5.0) for query in queries
        ]
