"""Runtime quickstart: the library owns no threads; its callers may.

Builds an engine on ONE runtime, shows that its sharded fan-out ran on the
calling thread (it is a loop over the shards: no thread is started), and
drives the estimation service from many threads of the caller's own.

Run with:  python examples/runtime_quickstart.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.baselines import UniformSamplingEstimator
from repro.datasets import make_binary_dataset
from repro.engine import SimilarityPredicate, SimilarityQueryEngine


def main() -> None:
    dataset = make_binary_dataset(
        num_records=3000, dimension=64, num_clusters=12, flip_probability=0.08,
        theta_max=16, seed=3, name="HM-Runtime",
    )

    # --- One runtime under the whole engine ------------------------------- #
    engine = SimilarityQueryEngine()
    engine.register_sharded_attribute(
        "fingerprints",
        dataset.records,
        "hamming",
        lambda shard_records, shard_index: UniformSamplingEstimator(
            shard_records, "hamming", sample_ratio=0.2, seed=shard_index
        ),
        num_shards=4,
        theta_max=dataset.theta_max,
    )

    rng = np.random.default_rng(11)
    queries = [
        SimilarityPredicate(
            "fingerprints",
            dataset.records[int(i)],
            float(rng.integers(6, 14)),
        )
        for i in rng.integers(0, len(dataset.records), size=60)
    ]

    threads_before = threading.active_count()
    start = time.perf_counter()
    looped = [engine.execute(query) for query in queries]
    looped_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = engine.execute_many(queries)  # ONE planning pass for all 60
    batched_seconds = time.perf_counter() - start

    assert [r.record_ids for r in looped] == [r.record_ids for r in batched]
    print(f"execute() loop: {looped_seconds * 1000:.1f} ms   "
          f"execute_many(): {batched_seconds * 1000:.1f} ms "
          "(bit-identical results)")

    # The shard fan-out is a loop on this thread; its per-shard task counts
    # land in the engine's registry, and no thread was started for it:
    shard_tasks = sum(
        metric.value
        for metric in engine.service.telemetry.metrics.collect()
        if metric.name == "repro_shard_tasks_total"
    )
    print(f"shard fan-out ran {shard_tasks:.0f} shard tasks on the caller; "
          f"threads started: {threading.active_count() - threads_before}")

    # --- Thread-safe serving: the caller's threads, one service ----------- #
    service = engine.service
    def estimate_burst(thread_id: int) -> None:
        picks = [(thread_id * 8 + i) % len(dataset.records) for i in range(8)]
        service.estimate_many(
            "fingerprints", [dataset.records[i] for i in picks], [9.0] * len(picks)
        )

    threads = [
        threading.Thread(target=estimate_burst, args=(t,)) for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = service.telemetry.endpoint("fingerprints")
    print(f"4 threads on one service: requests={merged.requests} "
          f"= hits {merged.cache_hits} + misses {merged.cache_misses}")


if __name__ == "__main__":
    main()
