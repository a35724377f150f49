"""Observability overhead: what full tracing costs over the shipped default.

One warm-cache conjunctive-query workload, executed sequentially under two
observability configurations.  The configurations are interleaved at the
*query* level — each query runs under both back-to-back (the order rotating
every round), so every configuration sees the same machine state — and each
(query, configuration) cell keeps the mean of its few fastest samples across
rounds (a scheduler hiccup inflates one sample, not a whole pass; a one-off
turbo burst cannot fake an impossibly fast cell either).  The overhead is the
ratio of summed per-query bests against baseline:

* **baseline** — the shipped default: tracing off (a disabled ``span(...)``
  is one thread-local read plus a bool check); metrics always record.
* **enabled** — ``enable_tracing()``: every query builds its full span tree
  through planner, executor, and residual verification.  The bar is **< 10%**
  over baseline.

Results must be identical across both configurations (observability never
changes what is computed).  Emits ``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from artifacts import emit_json
from repro.baselines import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.obs import disable_tracing, enable_tracing

NUM_RECORDS = 24000
NUM_QUERIES = 24
ROUNDS = 8
#: Extra round-batches allowed when a shared CI box is contended.  More
#: samples can only tighten each cell's best-K estimate, so rescue rounds
#: shrink a noise spike but cannot talk a true regression under the bar —
#: both sides keep converging toward their real cost.
MAX_RESCUE_BATCHES = 3

ENABLED_BAR = 0.10


@pytest.fixture(scope="module")
def overhead_setup():
    rng = np.random.default_rng(7)
    attributes = {
        "a": rng.normal(size=(NUM_RECORDS, 16)),
        "b": rng.normal(size=(NUM_RECORDS, 12)),
    }
    # Drift repair invalidates cached curves mid-measurement, so pin the
    # threshold out of reach: every measured pass must hit a warm cache.
    engine = SimilarityQueryEngine(drift_threshold=1e9)
    for name, matrix in attributes.items():
        engine.register_attribute(
            name,
            matrix,
            "euclidean",
            UniformSamplingEstimator(matrix, "euclidean", sample_ratio=0.05, seed=0),
            theta_max=8.0,
        )
    queries = []
    for _ in range(NUM_QUERIES):
        record_id = int(rng.integers(0, NUM_RECORDS))
        queries.append(
            ConjunctiveQuery(
                [
                    SimilarityPredicate(
                        name,
                        matrix[record_id] + rng.normal(0.0, 0.05, matrix.shape[1]),
                        float(rng.uniform(3.5, 4.5)),
                    )
                    for name, matrix in attributes.items()
                ]
            )
        )
    return engine, queries


def _configure(mode: str) -> None:
    if mode == "baseline":
        disable_tracing()
    elif mode == "enabled":
        enable_tracing()
    else:  # pragma: no cover - guarded by the MODES list
        raise ValueError(mode)


MODES = ("baseline", "enabled")


def test_observability_overhead_within_bars(overhead_setup, print_table):
    engine, queries = overhead_setup

    samples = {mode: [[] for _ in queries] for mode in MODES}
    rounds_seen = 0

    def run_rounds(count: int, reference) -> None:
        nonlocal rounds_seen
        for _ in range(count):
            # Rotate the order every round: if machine load ramps during a
            # pair, the penalty lands on both configurations equally often
            # instead of always on the later one.
            shift = rounds_seen % len(MODES)
            rounds_seen += 1
            order = MODES[shift:] + MODES[:shift]
            for index, query in enumerate(queries):
                # Untimed warm execute: the first timed configuration must
                # not pay this query's CPU-cache misses for the other.
                _configure("baseline")
                engine.execute(query)
                for mode in order:
                    _configure(mode)
                    start = time.perf_counter()
                    result = engine.execute(query)
                    elapsed = time.perf_counter() - start
                    samples[mode][index].append(elapsed)
                    assert result.record_ids == reference[index]

    # Per (query, configuration): the mean of the K smallest samples.  A
    # plain minimum filters slow noise but is defenceless against one LUCKY
    # sample (a turbo burst covering a single execute makes the baseline
    # look impossibly fast); averaging the K fastest keeps the filter and
    # shrugs off any single outlier.
    K_FASTEST = 3

    def trimmed_best(mode: str, index: int) -> float:
        fastest = sorted(samples[mode][index])[:K_FASTEST]
        return sum(fastest) / len(fastest)

    def overheads():
        best = {
            mode: sum(trimmed_best(mode, i) for i in range(len(queries)))
            for mode in MODES
        }
        return best, best["enabled"] / best["baseline"] - 1.0

    rounds_run = ROUNDS
    try:
        # Warm-up: populate curve caches and touch every code path once per
        # configuration, so no measured sample pays first-run costs — and pin
        # the observability-never-changes-results guarantee while at it.
        reference = None
        for mode in MODES:
            _configure(mode)
            ids = [r.record_ids for r in engine.execute_many(queries, parallel=False)]
            if reference is None:
                reference = ids
            assert ids == reference, f"results changed under {mode}"

        # Collector pauses would land on whichever configuration happens to
        # be running; take GC out of the measurement entirely.
        gc.collect()
        gc.disable()
        run_rounds(ROUNDS, reference)
        best, enabled_overhead = overheads()
        # A load spike on a shared box can inflate one configuration's bests
        # past the bar.  Rescue rounds keep tightening every minimum; a real
        # regression stays over the bar no matter how many rounds run.
        for _ in range(MAX_RESCUE_BATCHES):
            if enabled_overhead < ENABLED_BAR:
                break
            run_rounds(ROUNDS // 2, reference)
            rounds_run += ROUNDS // 2
            best, enabled_overhead = overheads()
    finally:
        gc.enable()
        disable_tracing()

    rows = [
        ["baseline (default)", f"{best['baseline'] * 1e3:.2f}", "-"],
        ["enabled (tracing)", f"{best['enabled'] * 1e3:.2f}",
         f"{enabled_overhead * 100:+.2f}%"],
    ]
    print_table(
        f"Observability overhead — {NUM_QUERIES} conjunctive queries × "
        f"{rounds_run} rounds, per-query best-{K_FASTEST} mean, warm cache",
        ["configuration", "sum of bests ms", "overhead"],
        rows,
    )

    payload = {
        "benchmark": "obs_overhead",
        "num_records": NUM_RECORDS,
        "num_queries": NUM_QUERIES,
        "rounds": rounds_run,
        "baseline_seconds": best["baseline"],
        "enabled_seconds": best["enabled"],
        "enabled_overhead": enabled_overhead,
        "enabled_bar": ENABLED_BAR,
        "results_identical": True,
    }
    emit_json("obs_overhead", payload)

    assert enabled_overhead < ENABLED_BAR, (
        f"tracing overhead {enabled_overhead:.2%} breaches the "
        f"{ENABLED_BAR:.0%} bar"
    )
