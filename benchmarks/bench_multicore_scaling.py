"""Multicore scaling: process-pool shard fan-out vs threads.

The same exact sharded-scan workload (``ShardedSelector.query_many``) answered
on the thread backend and on the process backend at 1/2/4 workers, for all four
distances (Hamming, Euclidean, Jaccard, edit).  The process backend publishes
each shard's index arrays once through a :class:`~repro.store.SharedDataPlane`
and forked workers attach them as read-only mmap views — so the per-query wire
traffic is just the op + arguments, and N workers execute on N cores.

Prints a ``JSON:`` line, writes no file and gates no merge: the only code
timing the process backend until ``benchmarks/e2e`` has a
``conj_process_shards`` workload (ROADMAP, "Every serving path has a workload").

Hard assertion, always: results are **bit-identical** across backends and
widths for every distance (both backends run the same selector code; only
the address space differs).

Scaling assertions (the ISSUE acceptance bar) only run on a box with ≥4
cores — a 1-core CI runner physically cannot show multicore speedup:

* ≥2.5x Hamming exact-scan speedup at 4 process workers vs 1;
* no regression at 1 process worker vs 1 thread worker (≤1.5x slack for
  pipe + fork overhead).

``BENCH_MULTICORE_MAX_WORKERS`` caps the widths swept.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.runtime import Runtime, fork_available
from repro.selection.edit_index import QGramEditSelector
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.selection.jaccard_index import PrefixFilterJaccardSelector
from repro.sharding import ShardedSelector

MAX_WORKERS = int(os.environ.get("BENCH_MULTICORE_MAX_WORKERS", "4"))
WIDTHS = [width for width in (1, 2, 4) if width <= MAX_WORKERS]
REPEATS = 3

#: Headline speedup bar (ISSUE acceptance), checked only on ≥4-core boxes.
TARGET_SPEEDUP = 2.5
SINGLE_WORKER_SLACK = 1.5


def _hamming_workload(rng):
    records = [row for row in rng.integers(0, 2, size=(20000, 512)).astype(np.uint8)]
    queries = [records[int(i)] for i in rng.integers(0, len(records), size=64)]
    thresholds = [200.0] * len(queries)
    return records, PackedHammingSelector, queries, thresholds


def _euclidean_workload(rng):
    records = [row for row in rng.normal(size=(6000, 16))]
    queries = [records[int(i)] for i in rng.integers(0, len(records), size=32)]
    thresholds = [3.0] * len(queries)
    return records, BallIndexEuclideanSelector, queries, thresholds


def _jaccard_workload(rng):
    records = [
        set(map(int, rng.choice(200, size=int(rng.integers(4, 24)), replace=False)))
        for _ in range(3000)
    ]
    queries = [records[int(i)] for i in rng.integers(0, len(records), size=24)]
    thresholds = [0.5] * len(queries)
    return records, PrefixFilterJaccardSelector, queries, thresholds


def _edit_workload(rng):
    alphabet = np.array(list("abcdefgh"))
    records = [
        "".join(rng.choice(alphabet, size=int(rng.integers(6, 14))))
        for _ in range(800)
    ]
    queries = [records[int(i)] for i in rng.integers(0, len(records), size=10)]
    thresholds = [2.0] * len(queries)
    return records, QGramEditSelector, queries, thresholds


WORKLOADS = {
    "hamming": _hamming_workload,
    "euclidean": _euclidean_workload,
    "jaccard": _jaccard_workload,
    "edit": _edit_workload,
}


def _run(records, selector_cls, queries, thresholds, width, backend):
    """Build a sharded selector, warm it up, and time the batched workload."""
    runtime = Runtime()
    selector = ShardedSelector(
        records,
        lambda recs: selector_cls(recs),
        num_shards=width,
        runtime=runtime,
        backend=backend,
    )
    try:
        # Warm-up: fork the children, publish the plane, rebuild worker-side
        # selectors — one-time costs that are not per-query throughput.
        selector.query_many(queries[:1], thresholds[:1])
        if backend == "process":
            stats = runtime.stats()
            assert "shards-proc" in stats, "process fan-out never engaged"
            assert stats["shards-proc"]["backend"] == "process"
        start = time.perf_counter()
        for _ in range(REPEATS):
            results = selector.query_many(queries, thresholds)
        elapsed = (time.perf_counter() - start) / REPEATS
        return results, elapsed
    finally:
        runtime.shutdown()


@pytest.mark.parametrize("distance", sorted(WORKLOADS))
def test_backends_bit_identical(distance, multicore_report):
    """Thread and process backends agree exactly, at every width."""
    rng = np.random.default_rng(11)
    records, selector_cls, queries, thresholds = WORKLOADS[distance](rng)
    reference = None
    rows = []
    for width in WIDTHS:
        timings = {}
        for backend in ("thread", "process"):
            results, elapsed = _run(
                records, selector_cls, queries, thresholds, width, backend
            )
            timings[backend] = elapsed
            if reference is None:
                reference = results
            assert results == reference, (
                f"{distance}: backend={backend} width={width} diverged from "
                "the sequential thread answers"
            )
        rows.append(
            {
                "workers": width,
                "thread_seconds": timings["thread"],
                "process_seconds": timings["process"],
            }
        )
    total_matches = sum(len(matches) for matches in reference)
    multicore_report[distance] = {
        "records": len(records),
        "queries": len(queries),
        "total_matches": total_matches,
        "widths": rows,
    }
    assert total_matches > 0, f"{distance}: workload selects nothing"


@pytest.fixture(scope="module")
def multicore_report():
    return {}


def test_emit_and_scaling(multicore_report):
    """Runs after the per-distance sweeps: print the report, assert scaling."""
    report = multicore_report
    assert set(report) == set(WORKLOADS), "per-distance sweeps did not all run"
    by_width = {
        distance: {row["workers"]: row for row in section["widths"]}
        for distance, section in report.items()
    }
    cores = os.cpu_count() or 1
    scaling_checked = cores >= 4 and 4 in WIDTHS and fork_available()
    payload = {
        "cpu_count": cores,
        "fork_available": fork_available(),
        "widths": WIDTHS,
        "repeats": REPEATS,
        "scaling_assertions_checked": scaling_checked,
        "target_speedup": TARGET_SPEEDUP,
        "distances": report,
    }
    if "hamming" in by_width and 1 in by_width["hamming"]:
        base = by_width["hamming"][1]
        payload["hamming_process_speedup"] = {
            width: base["process_seconds"] / row["process_seconds"]
            for width, row in sorted(by_width["hamming"].items())
        }
        payload["hamming_one_worker_overhead"] = (
            base["process_seconds"] / base["thread_seconds"]
        )
    print("JSON: " + json.dumps(payload, default=float))
    if scaling_checked and "hamming" in by_width:
        speedup = payload["hamming_process_speedup"][4]
        assert speedup >= TARGET_SPEEDUP, (
            f"hamming process backend scaled only {speedup:.2f}x at 4 workers "
            f"on a {cores}-core box (target {TARGET_SPEEDUP}x)"
        )
        overhead = payload["hamming_one_worker_overhead"]
        assert overhead <= SINGLE_WORKER_SLACK, (
            f"1-worker process backend is {overhead:.2f}x the thread backend "
            f"(allowed slack {SINGLE_WORKER_SLACK}x)"
        )
