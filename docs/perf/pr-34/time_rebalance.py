"""Time one live rebalance on ``bench_live_resharding.py``'s 20k-row selector.

Usage (BLAS pinned by the script; under a second per run)::

    python3 time_rebalance.py TREE

``TREE`` is a checkout of this repository; its ``src`` is imported, so the
same script measures a parent and a change.  It builds the benchmark's
4-shard ``PackedHammingSelector`` over 20,000 random 64-bit rows (seed 3),
times ``Rebalancer().execute`` of ``SplitShard(0, parts=2)`` +
``MergeShards((2, 3))`` once, and prints one JSON line: wall seconds, process
CPU seconds (all threads), the shard counts, and a hash of the answers to 8
queries at threshold 18 after the swap.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, os.path.join(os.path.abspath(sys.argv[1]), "src"))

import numpy as np  # noqa: E402

from repro.selection import PackedHammingSelector  # noqa: E402
from repro.sharding import (  # noqa: E402
    MergeShards,
    RebalancePlan,
    Rebalancer,
    ShardedSelector,
    SplitShard,
)

rng = np.random.default_rng(3)
records = rng.integers(0, 2, size=(20_000, 64), dtype=np.uint8)
selector = ShardedSelector(
    records,
    lambda recs: PackedHammingSelector(np.asarray(recs, dtype=np.uint8)),
    num_shards=4,
)
queries = [records[int(i)] for i in np.random.default_rng(7).integers(0, 20_000, 8)]
plan = RebalancePlan([SplitShard(0, parts=2), MergeShards((2, 3))])

wall, cpu = time.perf_counter(), time.process_time()
report = Rebalancer().execute(selector, plan)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

digest = hashlib.sha256()
for query in queries:
    digest.update(np.asarray(sorted(selector.query(query, 18)), dtype=np.int64).tobytes())
print(json.dumps({
    "wall_s": wall,
    "cpu_s": cpu,
    "shards": [report.num_shards_before, report.num_shards_after],
    "built": report.built_targets,
    "answers_sha256": digest.hexdigest()[:16],
}))
