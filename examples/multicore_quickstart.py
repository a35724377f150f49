"""Multicore quickstart: process-backend shard fan-out over an mmap'd snapshot.

Builds a packed-Hamming dataset, shards it behind ``backend="process"`` — each
shard's index arrays are published once to a shared data plane and scanned by
forked worker processes over read-only mmap views (no per-task array
pickling, no GIL) — and verifies the answers are bit-identical to the thread
backend.  Then snapshots an engine and restores it with ``mmap=True``: the
restore allocates O(metadata), the array pages stay on disk and are shared by
every process that maps them.

Run with:  python examples/multicore_quickstart.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.baselines import UniformSamplingEstimator
from repro.datasets import make_binary_dataset
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.runtime import Runtime, fork_available
from repro.selection.hamming_index import PackedHammingSelector
from repro.sharding import ShardedSelector
from repro.store import load_engine, save_engine

NUM_SHARDS = 4


def main() -> None:
    dataset = make_binary_dataset(
        num_records=8000, dimension=128, num_clusters=12, flip_probability=0.08,
        theta_max=32, seed=3, name="HM-Multicore",
    )
    queries = dataset.records[:32]
    thresholds = [20.0] * len(queries)

    # --- process-backend shard fan-out ---------------------------------- #
    print(f"cores: {os.cpu_count()}, fork available: {fork_available()}")
    answers = {}
    for backend in ("thread", "process"):
        runtime = Runtime()
        selector = ShardedSelector(
            dataset.records,
            lambda records: PackedHammingSelector(records),
            num_shards=NUM_SHARDS,
            runtime=runtime,
            backend=backend,
        )
        selector.query(queries[0], thresholds[0])  # warm up (fork + publish)
        start = time.perf_counter()
        answers[backend] = selector.query_many(queries, thresholds)
        elapsed = time.perf_counter() - start
        pools = runtime.stats()
        print(f"{backend:>7}: {elapsed * 1000:7.1f} ms  pools={sorted(pools)}")
        runtime.shutdown()
    assert answers["thread"] == answers["process"], "backends must agree exactly"
    print(f"bit-identical across backends: {sum(map(len, answers['thread']))} matches")

    # --- zero-copy snapshot restore -------------------------------------- #
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "bits",
        dataset.records,
        "hamming",
        UniformSamplingEstimator(dataset.records, "hamming", sample_ratio=0.2, seed=1),
        theta_max=dataset.theta_max,
    )
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "engine-snapshot")
        info = save_engine(engine, path)
        print(f"snapshot: {info.payload_bytes} payload bytes, {info.num_arrays} arrays")

        # Arrays restore as read-only views over the mapped payload file.
        restored = load_engine(path, mmap=True)
        workload = [SimilarityPredicate("bits", record, 20.0) for record in queries]
        results = restored.execute_many(workload)
        expected = engine.execute_many(workload)
        assert [r.record_ids for r in results] == [r.record_ids for r in expected]
        print(f"mmap restore answered "
              f"{sum(len(result.record_ids) for result in results)} matches, "
              "identical to the saved engine")


if __name__ == "__main__":
    main()
