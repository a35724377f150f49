"""Thread fan-out break-even: the evidence behind
``repro.sharding.selector.THREAD_DISPATCH_FLOOR_SECONDS``.

A standalone 4-shard ``ShardedSelector`` on Hamming and Euclidean data at 5k /
40k / 200k / 400k / 800k rows, the same probes answered by a thread fan-out
(floor patched to 0) and by the inline loop (``parallel=False``) in interleaved
passes, with the CPU seconds per shard task the selector's own meter read.
Asserts the shipped floor picks the faster side in every cell whose sides
differ by more than their spread (cells inside ``COIN_TOSS_BAND_MS``, where
repeated processes contradict each other, are reported but not asserted).
About a minute and ~0.5 GB at the largest cell, so it runs only when asked
for::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_fan_out_break_even.py -q -s --run-break-even

It prints the table and a ``JSON:`` line and writes no file; the table the
floor was chosen on is committed, with its machine block, as
``docs/perf/pr-18/fan_out_break_even.json``.  No ``benchmarks/e2e`` workload
reaches the thread path (their shard tasks cost 0.03–0.35 ms of CPU), which is
why this stays a script of its own until one does.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from unittest import mock

import numpy as np
import pytest

from repro.runtime import Runtime, usable_cores
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.sharding import ShardedSelector
from repro.sharding import selector as selector_module


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
    payload = {
        "benchmark": "fan_out_break_even",
        "num_shards": BREAK_EVEN_SHARDS,
        "passes": BREAK_EVEN_PASSES,
        "probes_per_pass": BREAK_EVEN_PROBES,
        "floor_seconds": floor,
        "coin_toss_band_ms": COIN_TOSS_BAND_MS,
        "machine": _machine(),
        "cells": cells,
    }
    print("JSON: " + json.dumps(payload, default=float))
    # The rule is right where it was measured: wherever the two sides'
    # ranges separate (outside the band where they trade places run to run),
    # the shipped floor runs the faster one.
    for cell in cells:
        if cell["faster"] is not None and not cell["coin_toss_band"]:
            assert cell["rule_runs"] == cell["faster"], cell
