"""Live resharding under continuous updates — the O(Δ) maintenance bars.

Two claims, each asserted (not just reported):

1. **O(Δ) update cost** — applying a Δ-row update to a sharded selector is
   delta work (append segments + tombstones), so the per-update latency must
   stay flat (≤2x) while the dataset grows 10x.  A rebuild-based update path
   would scale ~10x and fail loudly here.
2. **Bit-identity across the swap** — after updates and one ``rebalance(...)``
   call (staged build, checked swap) every query answers exactly what a linear
   scan over the merged dataset answers, and exactly what it answered
   before the swap.

Prints its tables and ``JSON:`` lines, writes no file and gates no merge: the
only code timing a rebalance until ``benchmarks/e2e``'s ``update_mix`` scripts a
split + merge mid-run (ROADMAP, "Every serving path has a workload").
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.selection import LinearScanSelector, PackedHammingSelector
from repro.sharding import MergeShards, RebalancePlan, ShardedSelector, SplitShard
from repro.sharding.rebalance import rebalance

SMALL = 2_000
LARGE = 20_000
WIDTH = 64
DELTA = 16
THRESHOLD = 18

#: Single-core CI boxes schedule noisily; every latency bar takes the best
#: of this many independent rounds before judging.
RESCUE_ROUNDS = 3


def _make_selector(num_records: int, seed: int, num_shards: int = 4) -> ShardedSelector:
    rng = np.random.default_rng(seed)
    records = rng.integers(0, 2, size=(num_records, WIDTH), dtype=np.uint8)
    return ShardedSelector(
        records,
        lambda recs: PackedHammingSelector(np.asarray(recs, dtype=np.uint8)),
        num_shards=num_shards,
    )


def _median_update_seconds(selector: ShardedSelector, seed: int, rounds: int = 9) -> float:
    """Median latency of one Δ-row insert+delete pair against ``selector``."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(rounds):
        batch = rng.integers(0, 2, size=(DELTA, WIDTH), dtype=np.uint8)
        positions = rng.choice(len(selector), size=DELTA, replace=False)
        started = time.perf_counter()
        selector.apply_operation(UpdateOperation("insert", batch))
        selector.apply_operation(UpdateOperation("delete", positions))
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def test_update_cost_is_o_delta(print_table):
    """Per-update latency stays flat (≤2x) while the dataset grows 10x."""
    small = _make_selector(SMALL, seed=1)
    large = _make_selector(LARGE, seed=2)

    best_ratio = float("inf")
    best = None
    for round_index in range(RESCUE_ROUNDS):
        small_s = _median_update_seconds(small, seed=10 + round_index)
        large_s = _median_update_seconds(large, seed=20 + round_index)
        ratio = large_s / max(small_s, 1e-9)
        if ratio < best_ratio:
            best_ratio, best = ratio, (small_s, large_s)
        if best_ratio <= 2.0:
            break
    small_s, large_s = best

    # The honest O(n) comparison: a rebuild-based "update" reconstructs every
    # shard index from the merged dataset.
    records = list(large.dataset)
    started = time.perf_counter()
    ShardedSelector(
        records,
        lambda recs: PackedHammingSelector(np.asarray(recs, dtype=np.uint8)),
        num_shards=large.num_shards,
    )
    rebuild_s = time.perf_counter() - started
    speedup = rebuild_s / max(large_s, 1e-9)

    print_table(
        "O(Δ) update cost — Δ=%d rows, dataset 10x" % DELTA,
        ["dataset", "median update", "vs small", "full rebuild", "speedup"],
        [
            [f"{SMALL}", f"{small_s * 1e3:.3f} ms", "1.00x", "-", "-"],
            [
                f"{LARGE}",
                f"{large_s * 1e3:.3f} ms",
                f"{best_ratio:.2f}x",
                f"{rebuild_s * 1e3:.1f} ms",
                f"{speedup:.1f}x",
            ],
        ],
    )
    assert best_ratio <= 2.0, (
        f"update latency grew {best_ratio:.2f}x on a 10x dataset — the update "
        "path is scaling with n, not Δ"
    )
    assert speedup >= 2.0, (
        f"delta update only {speedup:.2f}x faster than a from-scratch rebuild"
    )
    payload = {
        "delta_rows": DELTA,
        "small_records": SMALL,
        "large_records": LARGE,
        "median_update_seconds_small": small_s,
        "median_update_seconds_large": large_s,
        "latency_ratio_10x": best_ratio,
        "updates_per_second": 1.0 / max(large_s, 1e-9),
        "update_speedup_vs_rebuild": speedup,
    }
    print("JSON: " + json.dumps(payload, default=float))


def test_rebalance_swaps_bit_identically(print_table):
    """After updates and one rebalance, answers equal a linear scan's and the
    pre-swap answers."""
    selector = _make_selector(LARGE, seed=3)
    rng = np.random.default_rng(7)
    queries = [np.asarray(selector.dataset[int(i)]) for i in rng.integers(0, LARGE, 8)]
    selector.apply_operation(
        UpdateOperation("insert", rng.integers(0, 2, size=(DELTA, WIDTH), dtype=np.uint8))
    )
    selector.apply_operation(
        UpdateOperation("delete", rng.choice(LARGE, size=4, replace=False))
    )
    pre_swap = [selector.query(query, THRESHOLD) for query in queries]

    report = rebalance(selector, RebalancePlan([SplitShard(0, parts=2), MergeShards((2, 3))]))

    post_swap = [selector.query(query, THRESHOLD) for query in queries]
    reference = LinearScanSelector(
        np.asarray(selector.dataset), distance=get_distance("hamming")
    )
    identical_to_scan = all(
        reference.query(query, THRESHOLD) == answer
        for query, answer in zip(queries, post_swap)
    )
    print_table(
        "One rebalance on a live selector",
        ["shards", "built", "moved records", "rebalance"],
        [[
            f"{report.num_shards_before} -> {report.num_shards_after}",
            str(report.built_targets),
            str(report.moved_records),
            f"{report.seconds * 1e3:.1f} ms",
        ]],
    )
    assert identical_to_scan, "post-swap answers diverge from a linear scan"
    assert post_swap == pre_swap, "the swap changed an answer"
    assert len(selector) == LARGE + DELTA - 4
    payload = {
        "records": len(selector),
        "shards_before": report.num_shards_before,
        "shards_after": report.num_shards_after,
        "moved_records": report.moved_records,
        "rebalance_seconds": report.seconds,
        "bit_identical_to_scan": identical_to_scan,
    }
    print("JSON: " + json.dumps(payload, default=float))
