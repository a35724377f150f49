"""Where round execution saves: µs per query, per residual attribute.

Usage (BLAS pinned by the script; about a minute per workload)::

    python3 time_rounds.py TREE [WORKLOAD] [BATCHES]

``TREE`` is a checkout of this repository whose ``QueryExecutor.execute``
takes a list of plans; its ``src`` and its end-to-end fixture are imported.
It builds ``WORKLOAD``'s fixture (default ``conj_repeat``) at full scale,
draws ``BATCHES`` (default 60) batches of the bulk phase's size (32) from
the workload's request stream (seed 7) and plans each batch once.  Then,
five times over, every batch's plans are executed one query at a time
(``execute([plan])`` per plan) and as one batch in rounds
(``execute(plans)``), alternating which goes first.  Each attribute's
``distances_at`` is wrapped with a timer, so a query's execution splits
into its verify calls per attribute and the rest (drivers, bookkeeping).
Printed: the median over the five passes of µs per query for each part,
one column per way, and the number of ``distances_at`` calls per query.
"""

from __future__ import annotations

import collections
import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1])
WORKLOAD = sys.argv[2] if len(sys.argv) > 2 else "conj_repeat"
BATCHES = int(sys.argv[3]) if len(sys.argv) > 3 else 60
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

import numpy as np  # noqa: E402

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402

PASSES = 5


def timed_verifies(engine, seconds, calls):
    """Wrap every attribute's ``distances_at`` to add its time to ``seconds``."""
    for attribute in wl.ATTRIBUTES:
        selector = engine.catalog.get(attribute.name).selector

        def verify(*args, _inner=selector.distances_at, _name=attribute.name, **kwargs):
            start = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                seconds[_name] += time.perf_counter() - start
                calls[_name] += 1

        selector.distances_at = verify


def main() -> None:
    fixture = fx.build(WORKLOAD, wl.FULL)
    engine = fixture.engine
    repeat = WORKLOAD == "conj_repeat"
    stream = wl.RequestStream(
        7, WORKLOAD, fixture.columns, unique=not repeat,
        hot_rows=wl.FULL.hot_rows if repeat else 0,
    )
    source = stream.queries(stream.rng(0))
    batches = [
        engine.planner.plan_many([next(source) for _ in range(wl.FULL.bulk_batch)])
        for _ in range(BATCHES)
    ]
    queries = BATCHES * wl.FULL.bulk_batch
    seconds, calls = collections.Counter(), collections.Counter()
    timed_verifies(engine, seconds, calls)
    ways = {
        "one at a time": lambda plans: [engine.executor.execute([plan]) for plan in plans],
        "rounds": engine.executor.execute,
    }
    readings = {way: collections.defaultdict(list) for way in ways}
    counted = {}
    for repeat_index in range(PASSES):
        totals = {way: collections.Counter() for way in ways}
        for index, plans in enumerate(batches):
            order = list(ways) if (index + repeat_index) % 2 == 0 else list(ways)[::-1]
            for way in order:
                seconds.clear()
                calls.clear()
                start = time.perf_counter()
                ways[way](plans)
                totals[way]["execute"] += time.perf_counter() - start
                totals[way].update(seconds)
                counted.setdefault(way, collections.Counter()).update(calls)
        for way, total in totals.items():
            verify = sum(total[a.name] for a in wl.ATTRIBUTES)
            readings[way]["execute"].append(total["execute"])
            readings[way]["drivers + rest"].append(total["execute"] - verify)
            for attribute in wl.ATTRIBUTES:
                readings[way][f"verify {attribute.name}"].append(total[attribute.name])

    print(f"{WORKLOAD}: {BATCHES} batches x {wl.FULL.bulk_batch} queries, "
          f"median of {PASSES} passes, us per query")
    print(f"{'part':16s} " + " ".join(f"{way:>14s}" for way in ways) + f" {'change':>8s}")
    for part in readings["rounds"]:
        values = [np.median(readings[way][part]) / queries * 1e6 for way in ways]
        change = (values[1] / values[0] - 1.0) * 100 if values[0] else 0.0
        print(f"{part:16s} " + " ".join(f"{v:14.1f}" for v in values) + f" {change:+7.1f}%")
    for attribute in wl.ATTRIBUTES:
        per_query = [counted[way][attribute.name] / (PASSES * queries) for way in ways]
        print(f"calls {attribute.name:10s} " + " ".join(f"{v:14.3f}" for v in per_query))


if __name__ == "__main__":
    main()
