"""E2 — Table 6: average estimation time per query.

Paper shape: CardNet-A is faster than CardNet (the acceleration removes the
per-distance encoder passes), both are much faster than running the exact
similarity selection (SimSelect), and the sampling/KDE database methods are the
slowest of the estimators.  The table reports the timings; the check counts
the encoder passes, which a busy machine cannot reorder.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.selection import default_selector

#: Timed passes per estimator; each reading is the fastest of its passes.
TIMED_PASSES = 9


def _mean_estimation_seconds(estimators, examples) -> dict:
    """Mean seconds per scalar estimate, by estimator name.

    Each estimator makes one untimed warm-up pass over ``examples``, then
    :data:`TIMED_PASSES` timed passes, interleaved one pass per estimator in
    turn.  The reading is the fastest pass: on a shared 2-core machine one
    CardNet-A pass can take ~0.065 or ~0.09 ms per estimate, switching
    mid-run, and that jump is larger than the CardNet-A / CardNet gap.  A
    slow pass measures the machine; interleaving gives every estimator the
    same chance of a fast one.
    """

    def one_pass(estimator) -> float:
        start = time.perf_counter()
        for example in examples:
            estimator.estimate(example.record, example.theta)
        return (time.perf_counter() - start) / len(examples)

    for estimator in estimators.values():
        one_pass(estimator)
    passes = {name: [] for name in estimators}
    for _ in range(TIMED_PASSES):
        for name, estimator in estimators.items():
            passes[name].append(one_pass(estimator))
    return {name: min(seconds) for name, seconds in passes.items()}


def _encoder_passes_per_query(estimator, examples, monkeypatch) -> float:
    """Rows the encoder's first layer computes per scalar estimate: one per
    pass of Φ′ (CardNet-A) or of Φ over one ``(x'; e_i)`` row (CardNet)."""
    encoder = estimator.model.encoder
    first = encoder.trunk0 if estimator.model.accelerated else encoder.network.layer0
    rows = []
    infer = first.infer

    def counted(x):
        rows.append(len(x))
        return infer(x)

    monkeypatch.setattr(first, "infer", counted)
    for example in examples:
        estimator.estimate(example.record, example.theta)
    monkeypatch.undo()
    return sum(rows) / len(examples)


def test_table6_estimation_time(
    hm_estimators, hm_dataset, hm_workload, print_table, benchmark, monkeypatch
):
    examples = hm_workload.test[:40]
    rows = []
    timings = {}

    # SimSelect row: running the exact selection algorithm per query.
    selector = default_selector("hamming", hm_dataset.records)
    start = time.perf_counter()
    for example in examples:
        selector.cardinality(example.record, example.theta)
    timings["SimSelect"] = (time.perf_counter() - start) / len(examples)

    timings.update(_mean_estimation_seconds(hm_estimators, examples))

    for name, seconds in timings.items():
        rows.append([name, f"{seconds * 1e3:.3f}"])
    print_table("Table 6 — average estimation time", ["model", "ms/query"], rows)

    # Shape check from the paper that holds at any scale, counted rather than
    # timed: the accelerated model runs its encoder once per query, CardNet
    # once per distance value 0..τ_max (τ+1 passes at τ = τ_max: an estimate
    # reads the whole curve).  The timings and the orderings against
    # SimSelect/DB-US depend on the machine and the dataset scale (millions
    # of records in the paper vs hundreds here) and are reported in the
    # table only.
    tau_max = hm_estimators["CardNet"].model.tau_max
    for name, per_query in (("CardNet-A", 1), ("CardNet", tau_max + 1)):
        assert _encoder_passes_per_query(hm_estimators[name], examples, monkeypatch) == per_query

    example = examples[0]
    benchmark(lambda: hm_estimators["CardNet-A"].estimate(example.record, example.theta))


@pytest.mark.parametrize("name", ["CardNet", "CardNet-A", "DL-DNN", "DB-US"])
def test_table6_per_model_latency(hm_estimators, hm_workload, name, benchmark):
    """Per-model single-query latency, timed precisely by pytest-benchmark."""
    estimator = hm_estimators[name]
    example = hm_workload.test[0]
    result = benchmark(lambda: estimator.estimate(example.record, example.theta))
    assert result >= 0.0
