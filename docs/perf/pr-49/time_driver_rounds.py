"""Where driver rounds save: µs per query, per driving attribute.

Usage (BLAS pinned by the script; about a minute per workload)::

    python3 time_driver_rounds.py TREE [WORKLOAD] [BATCHES]

``TREE`` is a checkout of this repository whose ``QueryExecutor.execute``
takes a list of plans; its ``src`` and its end-to-end fixture are imported.
It builds ``WORKLOAD``'s fixture (default ``conj_repeat``) at full scale,
draws ``BATCHES`` (default 60) batches of the bulk phase's size (32) from
the workload's request stream (seed 7) and plans each batch once.  Then,
five times over, every batch's plans are executed one query at a time
(``execute([plan])`` per plan) and as one batch (``execute(plans)``),
alternating which goes first.  ``QueryExecutor._drive`` is wrapped with a
timer, so each driving attribute's time is summed over the queries it
drove (one plan per call on a tree that drives one query at a time, one
round per call on a tree with driver rounds).  Printed: the median over
the five passes of µs per query driven, for each driving attribute, one
column per way, and the queries each attribute drove per batch.
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
from repro.engine.executor import QueryExecutor  # noqa: E402

PASSES = 5


def timed_drivers(seconds):
    """Wrap ``QueryExecutor._drive`` to add its time to ``seconds`` per
    driving attribute; either signature (``plan`` or ``attribute, plans``)."""
    inner = QueryExecutor._drive

    def drive(self, *args):
        attribute = args[0] if isinstance(args[0], str) else args[0].driver.attribute
        start = time.perf_counter()
        try:
            return inner(self, *args)
        finally:
            seconds[attribute] += time.perf_counter() - start

    QueryExecutor._drive = drive


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
    driven = collections.Counter(plan.driver.attribute for plans in batches for plan in plans)
    seconds = collections.Counter()
    timed_drivers(seconds)
    ways = {
        "one at a time": lambda plans: [engine.executor.execute([plan]) for plan in plans],
        "rounds": engine.executor.execute,
    }
    readings = {way: collections.defaultdict(list) for way in ways}
    for repeat_index in range(PASSES):
        totals = {way: collections.Counter() for way in ways}
        for index, plans in enumerate(batches):
            order = list(ways) if (index + repeat_index) % 2 == 0 else list(ways)[::-1]
            for way in order:
                seconds.clear()
                start = time.perf_counter()
                ways[way](plans)
                totals[way]["execute"] += time.perf_counter() - start
                totals[way].update(seconds)
        for way, total in totals.items():
            readings[way]["execute"].append(total["execute"] / (BATCHES * wl.FULL.bulk_batch))
            for attribute in driven:
                readings[way][f"drive {attribute}"].append(total[attribute] / driven[attribute])

    print(f"{WORKLOAD}: {BATCHES} batches x {wl.FULL.bulk_batch} queries, "
          f"median of {PASSES} passes, us per query (drive X: per query X drove)")
    print(f"{'part':16s} " + " ".join(f"{way:>14s}" for way in ways) + f" {'change':>8s}")
    for part in readings["rounds"]:
        values = [np.median(readings[way][part]) * 1e6 for way in ways]
        change = (values[1] / values[0] - 1.0) * 100 if values[0] else 0.0
        print(f"{part:16s} " + " ".join(f"{v:14.1f}" for v in values) + f" {change:+7.1f}%")
    for attribute, count in sorted(driven.items()):
        print(f"queries driven by {attribute}: {count / BATCHES:.1f} per batch")


if __name__ == "__main__":
    main()
