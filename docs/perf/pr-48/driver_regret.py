"""How far the planner's driver is from the fastest one, per conjunction.

Usage (BLAS pinned by the script; about a minute per workload)::

    python3 driver_regret.py TREE WORKLOAD [COUNT]

``TREE`` is a checkout of this repository whose ``QueryExecutor.execute``
takes a list of plans (``docs/perf/pr-46/driver_regret.py`` times older
trees); its ``src`` and its end-to-end fixture are imported.
It builds ``WORKLOAD``'s fixture at full scale, draws the workload's
requests (seed 7) and keeps the first ``COUNT`` (default 200) four-predicate
conjunctions.  Each is planned once; then the plan is executed with every
predicate forced to drive, each forced plan 3 times with the fastest kept.
A forced plan verifies its residuals in the planner's own order
(``repro.engine.planner.residual_order``, the order every driver's residuals
run in) and a GPH attribute forced to drive uses its uniform allocation.
Each plan runs alone, as a batch of one: a round then holds one query, so
the figures are single-query execution.  Printed: how often each attribute
was chosen to drive, the mean execution ms of the chosen plan and of the
fastest forced one, and the share of conjunctions whose chosen driver was
the fastest.  Planning time is not in
either figure (a GPH driver's allocation is not charged).

"Fastest" is a minimum over per-driver minima, so it is biased low: with
drivers that run about equally fast, the noise alone makes the chosen one
lose to the luckiest of the others.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
TREE = os.path.abspath(sys.argv[1])
WORKLOAD = sys.argv[2]
COUNT = int(sys.argv[3]) if len(sys.argv) > 3 else 200
sys.path[:0] = [os.path.join(TREE, "src"), TREE]

import numpy as np  # noqa: E402

from benchmarks.e2e import fixture as fx  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402
from repro.engine.planner import residual_order  # noqa: E402


def fastest_ms(engine, plan) -> float:
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        engine.executor.execute([plan])
        samples.append(time.perf_counter() - start)
    return min(samples) * 1e3


def main() -> None:
    fixture = fx.build(WORKLOAD, wl.FULL)
    engine = fixture.engine
    repeat = WORKLOAD == "conj_repeat"
    stream = wl.RequestStream(
        7, WORKLOAD, fixture.columns, unique=not repeat,
        hot_rows=wl.FULL.hot_rows if repeat else 0,
    )
    rng = stream.rng(0)
    queries = []
    while len(queries) < COUNT:
        query = stream.query(rng)
        if len(query.predicates) == len(wl.ATTRIBUTES):
            queries.append(query)
    chosen_ms, best_ms, hits, drivers = [], [], 0, {}
    for query in queries:
        plan = engine.planner.plan(query)
        drivers[plan.driver.attribute] = drivers.get(plan.driver.attribute, 0) + 1
        planned = {id(p.predicate): p for p in (plan.driver, *plan.residuals)}
        everyone = [planned[id(predicate)] for predicate in query.predicates]
        selectors = [engine.catalog.get(p.attribute).selector for p in everyone]
        order = [everyone[i] for i in residual_order(everyone, selectors)]
        assert [p for p in order if p is not plan.driver] == plan.residuals
        times = {}
        for driver in everyone:
            residuals = [p for p in order if p is not driver]
            forced = plan if driver is plan.driver else replace(
                plan, driver=driver, residuals=residuals, allocation=None
            )
            times[driver.attribute] = fastest_ms(engine, forced)
        chosen_ms.append(times[plan.driver.attribute])
        best_ms.append(min(times.values()))
        hits += min(times, key=times.get) == plan.driver.attribute
    print(f"{WORKLOAD}: drivers chosen {dict(sorted(drivers.items()))}")
    print(f"chosen {np.mean(chosen_ms):.3f} ms, fastest {np.mean(best_ms):.3f} ms, "
          f"chosen is fastest in {hits / len(queries):.0%} of {len(queries)} conjunctions")


if __name__ == "__main__":
    main()
