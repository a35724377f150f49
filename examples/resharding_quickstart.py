"""Live resharding quickstart: O(Δ) updates + a hot-shard split, no downtime.

Builds a sharded Hamming deployment, streams mixed updates through it (every
insert/delete lands as an O(Δ) index delta — append segments + tombstones,
no rebuild), then rebalances the layout while it keeps serving: a hot shard
is split and two cold shards merged, staged shards build from the base
rows on the caller, mid-rebalance updates are journaled, and the
commit replays the journal before atomically swapping assignment, shards,
and serving endpoints.  Every step is checked bit-identical against a
linear scan.

Run with:  python examples/resharding_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import UniformSamplingEstimator
from repro.datasets import make_binary_dataset
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.selection import LinearScanSelector
from repro.sharding import MergeShards, RebalancePlan, SplitShard, suggest_plan

NUM_SHARDS = 4


def exact_ids(binding, record, theta):
    scan = LinearScanSelector(np.asarray(binding.records), get_distance("hamming"))
    return scan.query(record, theta)


def main() -> None:
    dataset = make_binary_dataset(
        num_records=2000, dimension=64, num_clusters=12, flip_probability=0.08,
        theta_max=16, seed=3, name="HM-Resharding",
    )

    engine = SimilarityQueryEngine()
    binding = engine.register_sharded_attribute(
        "fingerprints",
        dataset.records,
        "hamming",
        lambda shard_records, shard_index: UniformSamplingEstimator(
            shard_records, "hamming", sample_ratio=0.2, seed=shard_index
        ),
        num_shards=NUM_SHARDS,
        theta_max=dataset.theta_max,
    )
    selector = binding.selector
    query = dataset.records[7]
    predicate = SimilarityPredicate("fingerprints", query, 10.0)

    # --- O(Δ) update stream: deltas in place, no index rebuilds ----------- #
    rng = np.random.default_rng(5)
    shard_objects = list(selector.shards)
    for step in range(4):
        inserted = rng.integers(0, 2, size=(25, 64), dtype=np.uint8)
        engine.apply_update("fingerprints", UpdateOperation("insert", inserted))
        doomed = rng.choice(len(binding.records), size=10, replace=False)
        engine.apply_update("fingerprints", UpdateOperation("delete", doomed))
    assert all(
        shard is original for shard, original in zip(selector.shards, shard_objects)
    ), "updates must mutate shards in place, never replace them"
    result = engine.execute(predicate)
    assert result.record_ids == exact_ids(binding, query, 10.0)
    print(f"after updates: {len(binding.records)} records, "
          f"shard sizes {selector.stats()['shard_sizes']}, answers exact")

    # --- plan a rebalance ------------------------------------------------- #
    # suggest_plan splits oversized shards and merges undersized ones.
    plan = suggest_plan(selector.assignment)
    if plan is None:
        plan = RebalancePlan([SplitShard(0, parts=2), MergeShards((2, 3))])
    print(f"plan: {plan.describe()}")

    # --- execute it live --------------------------------------------------- #
    report = engine.rebalance_attribute("fingerprints", plan)
    print(
        f"rebalanced {report.num_shards_before} -> {report.num_shards_after} "
        f"shards: built {report.built_targets}, aliased {report.aliased_targets}, "
        f"moved {report.moved_records} records, replayed "
        f"{report.journal_replayed} journaled ops in {report.seconds * 1e3:.1f} ms"
    )
    print(f"serving endpoints now: {binding.shard_endpoints}")

    # --- everything still exact, updates still flow ----------------------- #
    result = engine.execute(predicate)
    assert result.record_ids == exact_ids(binding, query, 10.0)
    engine.apply_update(
        "fingerprints",
        UpdateOperation("insert", rng.integers(0, 2, size=(5, 64), dtype=np.uint8)),
    )
    result = engine.execute(predicate)
    assert result.record_ids == exact_ids(binding, query, 10.0)
    print("post-swap queries and updates: bit-identical to a linear scan")


if __name__ == "__main__":
    main()
