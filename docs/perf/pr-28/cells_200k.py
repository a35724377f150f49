"""200k-row shard fan-out cells: thread vs process backend, alternating sides.

``ShardedSelector(backend=...)`` no longer exists, so this runs only against
a checkout that still has the process backend (commit ``a7a85b2``), from its
root:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python cells_200k.py

For each distance and shard count it builds one selector per backend, warms
both, then alternates which side runs first over seven pairs; each sample is
the mean of three ``query_many`` calls.  Prints one JSON row per cell.
"""
import gc
import json
import statistics
import sys
import time

import numpy as np

from repro.runtime import Runtime
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.sharding import ShardedSelector

ROWS = 200_000
PAIRS = 7
REPEATS = 3


def workload(distance, rng):
    if distance == "hamming":
        matrix = rng.integers(0, 2, size=(ROWS, 512)).astype(np.uint8)
        records = list(matrix)
        queries = [records[int(i)] for i in rng.integers(0, ROWS, size=64)]
        return records, PackedHammingSelector, queries, [200.0] * len(queries)
    matrix = rng.normal(size=(ROWS, 16))
    records = list(matrix)
    queries = [records[int(i)] for i in rng.integers(0, ROWS, size=32)]
    return records, BallIndexEuclideanSelector, queries, [3.0] * len(queries)


def timed(selector, queries, thresholds):
    start = time.perf_counter()
    for _ in range(REPEATS):
        results = selector.query_many(queries, thresholds)
    return (time.perf_counter() - start) / REPEATS * 1e3, results


def main():
    out = []
    for distance in ("euclidean", "hamming"):
        rng = np.random.default_rng(11)
        records, cls, queries, thresholds = workload(distance, rng)
        for shards in (2, 4):
            sides = {}
            runtimes = []
            for backend in ("thread", "process"):
                runtime = Runtime()
                runtimes.append(runtime)
                selector = ShardedSelector(
                    records, lambda recs: cls(recs), num_shards=shards,
                    runtime=runtime, backend=backend,
                )
                selector.query_many(queries[:1], thresholds[:1])  # warm-up
                selector.query_many(queries, thresholds)
                sides[backend] = selector
            times = {"thread": [], "process": []}
            reference = None
            for pair in range(PAIRS):
                order = ("thread", "process") if pair % 2 == 0 else ("process", "thread")
                for backend in order:
                    ms, results = timed(sides[backend], queries, thresholds)
                    if reference is None:
                        reference = results
                    assert results == reference
                    times[backend].append(ms)
            row = {
                "distance": distance, "rows": ROWS, "shards": shards,
                "thread_ms": times["thread"], "process_ms": times["process"],
                "thread_median": statistics.median(times["thread"]),
                "process_median": statistics.median(times["process"]),
                "process_won": sum(p < t for t, p in zip(times["thread"], times["process"])),
                "last_fan_out": sides["thread"].stats()["last_fan_out"],
            }
            print(json.dumps(row), flush=True)
            out.append(row)
            for runtime in runtimes:
                runtime.shutdown()
            del sides
            gc.collect()
    print("JSON: " + json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
