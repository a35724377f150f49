"""Time a single-query sharded residual verify, on any tree.

Usage (BLAS pinned by the script; a few seconds per tree)::

    python3 time_sharded_verify.py TREE

``TREE`` is a checkout of this repository.  Per benchmark attribute, its
5,000 rows are hashed onto 4 shards of the distance's default index; for 4,
25 and 100 random ids and 200 near copies of random rows it times one
``distances_at`` of the sharded selector and, for reference, one of the
same index unsharded (the same distances, checked), and prints each one's
median µs.  It calls ``distances_at([record], ids)`` on a tree whose verify
takes a list of query records and ``distances_at(record, ids)`` on an older
one, so a parent and a change are timed by the same script.
"""

from __future__ import annotations

import inspect
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

LIST_FORM = "records" in inspect.signature(SimilaritySelector.distances_at).parameters


def verify(selector, record, ids) -> np.ndarray:
    return selector.distances_at([record] if LIST_FORM else record, ids)


def main() -> None:
    relation = wl.build_relation(5000)
    rng = np.random.default_rng(0)
    print(f"{'attribute':9s} {'ids':>4s} {'sharded us':>11s} {'unsharded us':>13s}")
    for name in ("hm", "ed", "jc", "eu"):
        records = relation[name].records
        distance = wl.ATTRIBUTE_BY_NAME[name].distance
        sharded = ShardedSelector(
            records, lambda rows: default_selector(distance, rows), num_shards=wl.NUM_SHARDS
        )
        unsharded = default_selector(distance, records)
        for count in (4, 25, 100):
            across, alone = [], []
            for _ in range(200):
                record = wl.perturb(name, records[int(rng.integers(len(records)))], rng)
                ids = np.sort(rng.choice(len(records), size=count, replace=False))
                start = time.perf_counter()
                one = verify(sharded, record, ids)
                middle = time.perf_counter()
                other = verify(unsharded, record, ids)
                across.append(middle - start)
                alone.append(time.perf_counter() - middle)
                assert np.array_equal(one, other)
            print(f"{name:9s} {count:4d} {np.median(across) * 1e6:11.0f} "
                  f"{np.median(alone) * 1e6:13.0f}")


if __name__ == "__main__":
    main()
