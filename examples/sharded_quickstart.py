"""Sharded quickstart: scale the engine out across shards, exactly.

Partitions a binary dataset across 4 shards, builds one exact index and one
estimator per shard, and registers the whole deployment as ONE engine
attribute: the planner reads the merged monotone curve (the elementwise sum
of the shard estimators' curves), the executor fans the query out across the
shard indexes (a loop on the caller) and merges bit-exactly, and a dataset
update is routed to — and relabels — only the shard it touches.

Run with:  python examples/sharded_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import UniformSamplingEstimator
from repro.datasets import make_binary_dataset
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.selection import LinearScanSelector

NUM_SHARDS = 4


def main() -> None:
    dataset = make_binary_dataset(
        num_records=2000, dimension=64, num_clusters=12, flip_probability=0.08,
        theta_max=16, seed=3, name="HM-Sharded",
    )

    engine = SimilarityQueryEngine()
    binding = engine.register_sharded_attribute(
        "fingerprints",
        dataset.records,
        "hamming",
        # One estimator per shard, built from that shard's records only.
        lambda shard_records, shard_index: UniformSamplingEstimator(
            shard_records, "hamming", sample_ratio=0.2, seed=shard_index
        ),
        num_shards=NUM_SHARDS,
        theta_max=dataset.theta_max,
    )
    print(f"shard sizes: {binding.selector.shard_sizes()}")
    print(f"endpoints:   {['fingerprints', *binding.shard_endpoints]}")

    # --- Plan against the merged curve, execute by fan-out + merge -------- #
    query = SimilarityPredicate("fingerprints", dataset.records[7], 10.0)
    plan = engine.explain(query)
    print("\n" + plan.describe())

    result = engine.execute(query)
    print(f"matches: {result.cardinality} (per shard: {result.shard_counts})")

    reference = LinearScanSelector(dataset.records, get_distance("hamming"))
    assert result.record_ids == reference.query(query.record, query.theta)
    print("sharded result is bit-identical to the unsharded scan")

    # --- Monotonicity survives the merge ---------------------------------- #
    group = engine.shard_group("fingerprints")
    merged_curve = group.estimate_curve(dataset.records[7])
    assert np.all(np.diff(merged_curve) >= -1e-9)
    print(f"merged curve is monotone over {len(merged_curve)} thresholds "
          "(a sum of monotone per-shard curves)")

    # --- An update touches one shard; the other shards do nothing --------- #
    report = engine.apply_update(
        "fingerprints", UpdateOperation("insert", [dataset.records[0]])
    )
    print(f"\ninsert routed to shard(s) {report.touched_shards} "
          f"of {NUM_SHARDS}; dataset size now {report.dataset_size}")

    updated_reference = LinearScanSelector(
        binding.records, get_distance("hamming")
    )
    post = engine.execute(SimilarityPredicate("fingerprints", binding.records[0], 8.0))
    assert post.record_ids == updated_reference.query(binding.records[0], 8.0)
    print("post-update results still exact")

    stats = engine.service.stats()
    print(f"\nserving cache: {stats['cache']}")


if __name__ == "__main__":
    main()
