"""Time a sharded residual verify two ways: one ``distances_at`` per shard, or
``rows_at`` gathered shard by shard and one kernel over the gathered rows.

Usage (BLAS pinned by the script; a few seconds)::

    python3 time_sharded_verify.py TREE

``TREE`` is a checkout of this repository.  Per benchmark attribute, its
5,000 rows are hashed onto 4 shards of the distance's default index; for 4,
25 and 100 random ids and 200 near copies of random rows it times both ways
(the same distances, checked) and prints each one's median µs.  The engine
takes the gathered way (``ShardedSelector`` keeps the default
``distances_at``), which this script measured faster on every distance.
"""

from __future__ import annotations

import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

import numpy as np  # noqa: E402

from benchmarks.e2e import workloads as wl  # noqa: E402
from repro.selection import SimilaritySelector, default_selector  # noqa: E402
from repro.sharding import ShardedSelector  # noqa: E402


def per_shard(sharded: ShardedSelector, record, ids: np.ndarray) -> np.ndarray:
    """One ``distances_at`` per shard holding some of ``ids``."""
    assignment = sharded.assignment
    distances = np.empty(len(ids))
    for shard_id, shard in enumerate(sharded.shards):
        positions = np.flatnonzero(assignment.shard_of[ids] == shard_id)
        if positions.size:
            distances[positions] = shard.distances_at(record, assignment.local_of[ids[positions]])
    return distances


def main() -> None:
    relation = wl.build_relation(5000)
    rng = np.random.default_rng(0)
    print(f"{'attribute':9s} {'ids':>4s} {'per shard us':>13s} {'gathered us':>12s}")
    for name in ("hm", "ed", "jc", "eu"):
        records = relation[name].records
        distance = wl.ATTRIBUTE_BY_NAME[name].distance
        sharded = ShardedSelector(
            records, lambda rows: default_selector(distance, rows), num_shards=wl.NUM_SHARDS
        )
        for count in (4, 25, 100):
            grouped, gathered = [], []
            for _ in range(200):
                record = wl.perturb(name, records[int(rng.integers(len(records)))], rng)
                ids = np.sort(rng.choice(len(records), size=count, replace=False))
                start = time.perf_counter()
                one = per_shard(sharded, record, ids)
                middle = time.perf_counter()
                other = SimilaritySelector.distances_at(sharded, record, ids)
                grouped.append(middle - start)
                gathered.append(time.perf_counter() - middle)
                assert np.array_equal(one, other)
            print(f"{name:9s} {count:4d} {np.median(grouped) * 1e6:13.0f} "
                  f"{np.median(gathered) * 1e6:12.0f}")


if __name__ == "__main__":
    main()
