"""Runtime concurrency benchmark: what batching buys, and when a pool pays.

Three sections, each emitting a machine-readable ``JSON:`` line and a
``BENCH_*.json`` artifact:

* **multi-query throughput** — the same multi-predicate workload answered on
  ONE engine configuration by (a) an ``execute(query)`` loop (per-query
  planning, per-query micro-batches), (b) ``execute_many(queries,
  parallel=False)`` (ONE batched estimation pass per endpoint, plans executed
  in order on the caller) and (c) ``execute_many(queries)`` as shipped.
  Results must be bit-identical across the three.  The ≥1.5x bar is on what
  was measured to earn it — batched planning, (b) over (a); (c) is (b) unless
  execution waits on worker processes (``pipelines_execution``), so here it
  must submit nothing to any pool.  (An earlier version of this benchmark
  timed (a) on a 1-worker engine against (c) on a 4-worker engine and
  credited the difference to pipelining.)

* **thread fan-out break-even** — the evidence behind
  ``repro.sharding.selector.THREAD_DISPATCH_FLOOR_SECONDS``: a standalone
  4-shard ``ShardedSelector`` on Hamming and Euclidean data at 5k / 40k /
  200k / 400k / 800k rows, the same probes answered by a thread fan-out (floor
  patched to 0) and by the inline loop (``parallel=False``) in interleaved
  passes, with the CPU seconds per shard task the selector's own meter read.
  Asserts the shipped floor picks the faster side in every cell whose sides
  differ by more than their spread (cells inside ``COIN_TOSS_BAND_MS``, where
  repeated processes contradict each other, are reported but not asserted).
  About a minute and ~0.5 GB at the largest cell, so it runs only when asked
  for::

      PYTHONPATH=src python -m pytest benchmarks/bench_runtime_concurrency.py \
          -q -s -k break_even --run-break-even

* **backpressure accounting** — a full bounded queue driven through each
  admission-control policy (``block`` / ``reject`` / ``shed_oldest``) with
  the counts the pool reports for every decision, pinning that admitted work
  always completes and every rejection/shed is accounted.

Run it the way ``benchmarks/e2e/run.py`` runs the engine, BLAS on one thread
(``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``, set before numpy is imported,
so on the command line): with two BLAS threads on a two-core box the batched
estimation pass is bimodal from process to process (0.038–0.094 s for the
same 120 queries) and the first section's ratio reads anywhere in 1.4–3.0x.
The artifacts record the pins they were taken under.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time
from unittest import mock

import numpy as np
import pytest

from artifacts import emit_json
from repro.baselines.sampling import UniformSamplingEstimator
from repro.datasets import make_binary_dataset, make_vector_dataset
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.runtime import PoolRejectedError, Runtime, WorkerPool, usable_cores
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.sharding import ShardedSelector
from repro.sharding import selector as selector_module

NUM_RECORDS = 5000
NUM_QUERIES = 120
EXECUTE_WORKERS = 4
HM_THETA_MAX = 16
EU_THETA_MAX = 4.0


@pytest.fixture(scope="module")
def runtime_datasets():
    hamming = make_binary_dataset(
        num_records=NUM_RECORDS, dimension=64, num_clusters=12,
        flip_probability=0.08, theta_max=HM_THETA_MAX, seed=29, name="HM-Runtime",
    )
    euclidean = make_vector_dataset(
        num_records=NUM_RECORDS, dimension=12, num_clusters=12,
        theta_max=EU_THETA_MAX, seed=29, name="EU-Runtime",
    )
    return hamming, euclidean


def _build_engine(datasets):
    hamming, euclidean = datasets
    engine = SimilarityQueryEngine(execute_workers=EXECUTE_WORKERS)
    engine.register_attribute(
        "bits",
        hamming.records,
        "hamming",
        UniformSamplingEstimator(hamming.records, "hamming", sample_ratio=0.2, seed=3),
        theta_max=hamming.theta_max,
    )
    engine.register_attribute(
        "vec",
        euclidean.records,
        "euclidean",
        UniformSamplingEstimator(euclidean.records, "euclidean", sample_ratio=0.2, seed=3),
        theta_max=euclidean.theta_max,
    )
    return engine


def _workload(datasets):
    hamming, euclidean = datasets
    rng = np.random.default_rng(41)
    picks = rng.integers(0, NUM_RECORDS, size=NUM_QUERIES)
    queries = []
    for index in picks:
        queries.append(
            ConjunctiveQuery(
                [
                    SimilarityPredicate(
                        "bits", hamming.records[int(index)],
                        float(rng.integers(5, HM_THETA_MAX)),
                    ),
                    SimilarityPredicate(
                        "vec", euclidean.records[int(index)],
                        float(rng.uniform(1.0, EU_THETA_MAX)),
                    ),
                ]
            )
        )
    return queries


def _machine():
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "blas_thread_pins": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
    }


def test_batched_execute_many_is_faster_and_bit_identical(
    runtime_datasets, print_table
):
    queries = _workload(runtime_datasets)
    paths = {
        "execute() loop": lambda engine: [engine.execute(query) for query in queries],
        "execute_many(parallel=False)": lambda engine: engine.execute_many(
            queries, parallel=False
        ),
        "execute_many()": lambda engine: engine.execute_many(queries),
    }

    # Best-of-3, rounds interleaved across the paths, each on a FRESH engine
    # of the one configuration (a warm curve cache would measure caching, not
    # the execution path); answers come from round 1.
    seconds = {name: float("inf") for name in paths}
    answers, engines = {}, {}
    for _ in range(3):
        for name, run in paths.items():
            engine = _build_engine(runtime_datasets)
            start = time.perf_counter()
            answered = run(engine)
            seconds[name] = min(seconds[name], time.perf_counter() - start)
            answers.setdefault(name, answered)
            engines[name] = engine

    # Exactness first: batching may only move wall-clock, never answers.
    reference = answers["execute() loop"]
    for name in paths:
        for expected, result in zip(reference, answers[name]):
            assert result.record_ids == expected.record_ids
            assert result.driver_actual == expected.driver_actual
            assert result.plan.driver.attribute == expected.plan.driver.attribute

    # Nothing here leaves the interpreter, so the shipped path dispatches
    # nothing: it IS the batched sequential path.
    assert engines["execute_many()"].runtime.pool_names() == []

    loop = seconds["execute() loop"]
    print_table(
        f"Multi-query throughput — {NUM_QUERIES} conjunctive queries, "
        f"{NUM_RECORDS} records x 2 attributes, execute_workers={EXECUTE_WORKERS} "
        f"(usable cores={usable_cores()})",
        ["path", "seconds", "queries/s", "vs loop"],
        [
            [name, f"{seconds[name]:.4f}", f"{NUM_QUERIES / seconds[name]:.1f}",
             f"{loop / seconds[name]:.2f}x"]
            for name in paths
        ],
    )
    batched_speedup = loop / seconds["execute_many(parallel=False)"]
    emit_json(
        "runtime_concurrency",
        {
            "benchmark": "runtime_concurrency",
            "section": "multi_query_throughput",
            "num_records": NUM_RECORDS,
            "num_queries": NUM_QUERIES,
            "execute_workers": EXECUTE_WORKERS,
            "machine": _machine(),
            "seconds": seconds,
            "queries_per_second": {
                name: NUM_QUERIES / value for name, value in seconds.items()
            },
            "speedup_batched_planning_vs_loop": batched_speedup,
            "speedup_as_shipped_vs_loop": loop / seconds["execute_many()"],
            "results_identical": True,
            "pools_used_as_shipped": engines["execute_many()"].runtime.pool_names(),
        },
    )
    assert batched_speedup >= 1.5


# --------------------------------------------------------------------------- #
# Thread fan-out break-even (evidence for THREAD_DISPATCH_FLOOR_SECONDS)
# --------------------------------------------------------------------------- #
BREAK_EVEN_ROWS = (5_000, 40_000, 200_000, 400_000, 800_000)
BREAK_EVEN_SHARDS = 4
BREAK_EVEN_PASSES = 4
BREAK_EVEN_PROBES = 24
#: CPU ms per shard task between which the two sides trade places from one
#: process to the next on this 2-core box (10 cells measured there while the
#: floor was chosen: inline ahead in 2, the pool in 3, ranges overlapping in
#: 5; CHANGES.md, PR 18).  Cells inside it are reported, not asserted.
COIN_TOSS_BAND_MS = (1.0, 2.95)

BREAK_EVEN_KINDS = {
    "hamming": (
        lambda rng, rows: rng.integers(0, 2, size=(rows, 64)).astype(np.uint8),
        PackedHammingSelector,
        20.0,
    ),
    "euclidean": (
        lambda rng, rows: rng.normal(size=(rows, 12)),
        BallIndexEuclideanSelector,
        2.5,
    ),
}


def _median_ms_per_query(selector, probes, threshold):
    timings = []
    for probe in probes:
        start = time.perf_counter()
        selector.query(probe, threshold)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings) * 1e3


def _break_even_cell(kind, rows):
    """One (distance, size) cell: interleaved passes of the two sides over
    the same probes, plus the mean CPU seconds per shard task the selector's
    meter read while the loop ran inline — the decision's input."""
    make_matrix, selector_cls, threshold = BREAK_EVEN_KINDS[kind]
    rng = np.random.default_rng(rows)
    matrix = make_matrix(rng, rows)
    runtime = Runtime()
    selector = ShardedSelector(
        list(matrix),
        selector_cls,
        num_shards=BREAK_EVEN_SHARDS,
        partitioner="round_robin",
        runtime=runtime,
    )
    probes = [matrix[int(i)] for i in rng.integers(0, rows, size=BREAK_EVEN_PROBES)]
    pool_ms, inline_ms, task_cpu = [], [], []
    try:
        for pass_index in range(BREAK_EVEN_PASSES + 1):  # pass 0 warms both sides
            for side in ("pool", "inline") if pass_index % 2 else ("inline", "pool"):
                if side == "pool":
                    selector.parallel = True
                    with mock.patch.multiple(
                        selector_module,
                        THREAD_DISPATCH_FLOOR_SECONDS=0.0,
                        usable_cores=lambda: 2,
                    ):
                        reading = _median_ms_per_query(selector, probes, threshold)
                    assert selector.stats()["last_fan_out"] == "thread"
                else:
                    selector.parallel = False
                    reading = _median_ms_per_query(selector, probes, threshold)
                    assert selector.stats()["last_fan_out"] == "inline"
                    if pass_index:
                        task_cpu.append(selector.stats()["mean_task_seconds"]["query"])
                if pass_index:
                    (pool_ms if side == "pool" else inline_ms).append(reading)
    finally:
        runtime.shutdown()
    return {
        "kind": kind,
        "rows": rows,
        "pool_ms": pool_ms,
        "inline_ms": inline_ms,
        "task_cpu_ms": statistics.median(task_cpu) * 1e3,
    }


def _verdict(cell):
    """The faster side where the ranges separate (else ``None``), and the
    side the shipped floor sends this cell's tasks to on a 2-core box."""
    faster = None
    if max(cell["inline_ms"]) < min(cell["pool_ms"]):
        faster = "inline"
    elif max(cell["pool_ms"]) < min(cell["inline_ms"]):
        faster = "pool"
    chosen = selector_module.fan_out_mode(
        True, BREAK_EVEN_SHARDS, False, 2, cell["task_cpu_ms"] / 1e3
    )
    return faster, {"thread": "pool", "inline": "inline"}[chosen]


def test_thread_fan_out_break_even_table(request, print_table):
    if not request.config.getoption("--run-break-even"):
        pytest.skip("~1 min and ~0.5 GB: pass --run-break-even (see module docstring)")
    floor = selector_module.THREAD_DISPATCH_FLOOR_SECONDS
    low, high = COIN_TOSS_BAND_MS
    cells = [
        _break_even_cell(kind, rows)
        for kind in BREAK_EVEN_KINDS
        for rows in BREAK_EVEN_ROWS
    ]
    table = []
    for cell in cells:
        faster, chosen = _verdict(cell)
        cell["faster"], cell["rule_runs"] = faster, chosen
        cell["coin_toss_band"] = low <= cell["task_cpu_ms"] < high
        table.append(
            [
                cell["kind"], f"{cell['rows']:,}",
                f"{min(cell['pool_ms']):.2f}–{max(cell['pool_ms']):.2f}",
                f"{min(cell['inline_ms']):.2f}–{max(cell['inline_ms']):.2f}",
                f"{cell['task_cpu_ms']:.3f}",
                faster or "overlap",
                chosen + (" (coin-toss band)" if cell["coin_toss_band"] else ""),
            ]
        )
    print_table(
        f"Thread fan-out break-even — {BREAK_EVEN_SHARDS} shards, "
        f"{BREAK_EVEN_PASSES} interleaved passes x {BREAK_EVEN_PROBES} probes, "
        f"median ms/query per pass (usable cores={usable_cores()}, "
        f"floor={floor * 1e3:g} ms CPU/task)",
        ["distance", "rows", "pool ms", "inline ms", "task CPU ms", "faster", "rule runs"],
        table,
    )
    emit_json(
        "runtime_fan_out_break_even",
        {
            "benchmark": "runtime_concurrency",
            "section": "thread_fan_out_break_even",
            "num_shards": BREAK_EVEN_SHARDS,
            "passes": BREAK_EVEN_PASSES,
            "probes_per_pass": BREAK_EVEN_PROBES,
            "floor_seconds": floor,
            "coin_toss_band_ms": COIN_TOSS_BAND_MS,
            "machine": _machine(),
            "cells": cells,
        },
    )
    # The rule is right where it was measured: wherever the two sides'
    # ranges separate (outside the band where they trade places run to run),
    # the shipped floor runs the faster one.
    for cell in cells:
        if cell["faster"] is not None and not cell["coin_toss_band"]:
            assert cell["rule_runs"] == cell["faster"], cell


def test_backpressure_policies_account_for_every_submission(print_table):
    """Drive a full bounded queue through each policy; every admitted task
    completes, every refusal is counted, nothing disappears silently."""
    depth, extra = 8, 6
    outcomes = {}
    for policy in ("block", "reject", "shed_oldest"):
        pool = WorkerPool(
            f"bp-{policy}", num_workers=1, max_queue_depth=depth, policy=policy
        )
        gate = threading.Event()
        running = pool.submit(gate.wait, 30)
        while pool.stats()["active"] == 0:
            time.sleep(0.001)
        handles = [pool.submit(lambda i=i: i) for i in range(depth)]
        overflow = []
        if policy == "block":
            # Blocked submitters park until the worker opens space; release
            # the gate from a timer so the measurement includes the wait.
            threading.Timer(0.05, gate.set).start()
            overflow = [pool.submit(lambda i=i: -i) for i in range(extra)]
        else:
            rejected_submits = 0
            for i in range(extra):
                try:
                    overflow.append(pool.submit(lambda i=i: -i))
                except PoolRejectedError:
                    # The rejection IS the measured outcome; the pool's own
                    # stats["rejected"] counter is asserted against below.
                    rejected_submits += 1
            gate.set()
        running.result(timeout=30)
        pool.drain(timeout=30)
        stats = pool.stats()
        completed_values = [h.result() for h in handles if not h.shed]
        assert len(completed_values) == depth - stats["shed"]
        admitted = 1 + depth + len(overflow)
        assert stats["completed"] == admitted - stats["shed"]
        assert stats["submitted"] == admitted
        if policy == "reject":
            assert stats["rejected"] == extra == rejected_submits
        if policy == "shed_oldest":
            assert stats["shed"] == extra
        outcomes[policy] = {
            "submitted": stats["submitted"],
            "completed": stats["completed"],
            "rejected": stats["rejected"],
            "shed": stats["shed"],
            "blocked_submissions": stats["blocked_submissions"],
        }
        pool.shutdown()

    print_table(
        f"Backpressure accounting — depth-{depth} queue, {extra} overflow submissions",
        ["policy", "submitted", "completed", "rejected", "shed", "blocked"],
        [
            [policy, str(o["submitted"]), str(o["completed"]),
             str(o["rejected"]), str(o["shed"]), str(o["blocked_submissions"])]
            for policy, o in outcomes.items()
        ],
    )
    emit_json(
        "runtime_backpressure",
        {
            "benchmark": "runtime_concurrency",
            "section": "backpressure_accounting",
            "queue_depth": depth,
            "overflow": extra,
            "policies": outcomes,
        },
    )
