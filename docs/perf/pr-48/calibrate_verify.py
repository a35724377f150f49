"""Measure a residual verify's cost as rounds pay it: fixed µs per
``distances_at`` call and µs per (query, row) pair, per distance.

Usage (BLAS pinned by the script; about a minute)::

    python3 calibrate_verify.py TREE

``TREE`` is a checkout of this repository whose ``distances_at`` takes
``(records, ids, owners)``; its ``src`` and the end-to-end relation
(``benchmarks.e2e.workloads.build_relation``, 5,000 rows) are imported.
Per benchmark attribute, on the distance's default index and on the same
rows hashed onto 4 shards of it, two kinds of call are timed:

* **one query**: ``distances_at([record], ids)`` over 1 / 4 / 16 / 64 / 256
  random ids, for 48 near copies of random rows;
* **a round of 32 queries**: ``distances_at(records, ids, owners)`` with 32
  such records owning 1 / 2 / 4 / 8 / 16 random ids each (32–512 pairs),
  48 rounds.

Each call is timed 5 times and the fastest kept; each kind is fitted by
non-negative least squares as ``fixed + per_row·pairs``.  The whole
measurement runs 5 times and each number is the median of its 5 values.
The planner prices a verify per query with ``VERIFY_COST_US`` /
``DEFAULT_VERIFY_COST_US``; this table is what a price for a round (its
fixed cost shared by the round's queries) and for a sharded verify (which
runs the shard class's kernel) would be copied from.
"""

from __future__ import annotations

import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

import numpy as np  # noqa: E402
from scipy.optimize import nnls  # noqa: E402

from benchmarks.e2e import workloads as wl  # noqa: E402
from repro.selection import default_selector  # noqa: E402
from repro.sharding import ShardedSelector  # noqa: E402

ROWS = 5000
REPEATS = 5
ROUNDS = 5
SAMPLES = 48
ONE_QUERY_ROWS = (1, 4, 16, 64, 256)
ROUND_QUERIES = 32
ROUND_ROWS = (1, 2, 4, 8, 16)


def timed(call) -> float:
    fastest = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest * 1e6


def fit(columns, times) -> list:
    coefficients, _ = nnls(np.asarray(columns, dtype=np.float64), np.asarray(times))
    return [float(c) for c in coefficients]


def measure(index, name, records, rng) -> dict:
    def near():
        return wl.perturb(name, records[int(rng.integers(len(records)))], rng)

    one, many = ([], []), ([], [])
    for _ in range(SAMPLES):
        record = near()
        for rows in ONE_QUERY_ROWS:
            ids = np.sort(rng.choice(len(index), size=rows, replace=False))
            one[1].append(timed(lambda: index.distances_at([record], ids)))
            one[0].append([1.0, rows])
        queries = [near() for _ in range(ROUND_QUERIES)]
        for rows in ROUND_ROWS:
            ids = np.concatenate([
                np.sort(rng.choice(len(index), size=rows, replace=False))
                for _ in range(ROUND_QUERIES)
            ])
            owners = np.repeat(np.arange(ROUND_QUERIES), rows)
            many[1].append(timed(lambda: index.distances_at(queries, ids, owners)))
            many[0].append([1.0, ids.size])
    return {"one query": fit(*one), "round of 32": fit(*many)}


def calibrate(relation, rng) -> dict:
    out = {}
    for name in ("hm", "ed", "jc", "eu"):
        records = relation[name].records
        distance = wl.ATTRIBUTE_BY_NAME[name].distance
        out[name] = {
            "unsharded": measure(default_selector(distance, records), name, records, rng),
            "4 shards": measure(
                ShardedSelector(
                    records, lambda rows: default_selector(distance, rows),
                    num_shards=wl.NUM_SHARDS,
                ),
                name, records, rng,
            ),
        }
    return out


def median(values):
    if isinstance(values[0], dict):
        return {key: median([value[key] for value in values]) for key in values[0]}
    return np.median(np.asarray(values, dtype=np.float64), axis=0).tolist()


def main() -> None:
    relation = wl.build_relation(ROWS)
    rng = np.random.default_rng(48)
    table = median([calibrate(relation, rng) for _ in range(ROUNDS)])
    print(f"{'attribute':9s} {'layout':10s} {'call':12s} {'fixed us':>9s} {'per row us':>11s}")
    for name, layouts in table.items():
        for layout, calls in layouts.items():
            for call, (fixed, per_row) in calls.items():
                print(f"{name:9s} {layout:10s} {call:12s} {fixed:9.1f} {per_row:11.4f}")


if __name__ == "__main__":
    main()
