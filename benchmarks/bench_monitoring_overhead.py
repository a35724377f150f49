"""Continuous-monitoring overhead: the scraper + SLO loop, measured.

One warm-cache conjunctive-query workload, executed under two monitoring
configurations that alternate phase-by-phase within every round (the order
rotating each round, so ramping machine load lands on both equally often):

* **baseline** — the shipped default: metrics on, no monitoring hub.
* **monitoring** — ``engine.monitor()`` live: the background scraper samples
  every metric into ring-buffer series at a deliberately punishing 20 Hz
  (50× the 1 Hz default), and every tick evaluates a latency SLO's
  fast/slow burn rates plus a burn-rate and a threshold alert rule.

Each (query, configuration) cell keeps the mean of its few fastest samples
across rounds (a scheduler hiccup inflates one sample, not a whole pass); the
monitoring overhead is the ratio of summed per-query bests.  The bar is **< 3%**: scraping reads
counters and walks histogram buckets off the query path, so a running hub
must cost no more than scheduler noise.  Results must be bit-identical with
and without the hub (monitoring never changes what is computed).

Prints its table and a ``JSON:`` line, writes no file and gates no merge: the
only code timing a live hub until ``benchmarks/e2e`` has the hub ticking during
``conj_repeat`` as a workload (ROADMAP, "Every serving path has a workload").
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.obs import AlertRule, SLObjective, disable_tracing, metric_key

NUM_RECORDS = 16000
NUM_QUERIES = 20
ROUNDS = 8
MAX_RESCUE_BATCHES = 3

#: Scrape interval while the hub is live: 20 Hz, 50x the 1 Hz default, so the
#: measured figure bounds any sane production configuration from above.
SCRAPE_INTERVAL = 0.05

MONITORING_BAR = 0.03

MODES = ("baseline", "monitoring")


@pytest.fixture(scope="module")
def monitoring_setup():
    rng = np.random.default_rng(11)
    attributes = {
        "a": rng.normal(size=(NUM_RECORDS, 16)),
        "b": rng.normal(size=(NUM_RECORDS, 12)),
    }
    # Warm-cache measurement: pin drift repair out of reach.
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
    hub = engine.monitor(interval=SCRAPE_INTERVAL, start=False)
    hub.add_objective(
        SLObjective.latency("a", threshold=0.1, fast_window=1.0, slow_window=5.0)
    )
    hub.add_rule(AlertRule(name="latency-burn", kind="burn_rate", slo="latency-a"))
    hub.add_rule(
        AlertRule(
            name="scrape-failures",
            kind="threshold",
            series=metric_key("repro_scrape_failures_total", {}),
            comparator=">",
            value=0.0,
        )
    )
    yield engine, queries
    if hub.running:
        hub.stop()


def test_monitoring_overhead_within_bar(monitoring_setup, print_table):
    engine, queries = monitoring_setup
    hub = engine.monitoring
    disable_tracing()

    def _configure(mode: str) -> None:
        if mode == "monitoring":
            if not hub.running:
                hub.start()
        elif hub.running:
            hub.stop()

    samples = {mode: [[] for _ in queries] for mode in MODES}
    rounds_seen = 0

    def run_rounds(count: int, reference) -> None:
        nonlocal rounds_seen
        for _ in range(count):
            # Alternate which configuration leads each round: a load ramp
            # mid-round penalizes both equally often.  The hub start/stop
            # happens once per phase, outside every timed region.
            shift = rounds_seen % len(MODES)
            rounds_seen += 1
            order = MODES[shift:] + MODES[:shift]
            for mode in order:
                _configure(mode)
                for index, query in enumerate(queries):
                    # Untimed warm execute: neither configuration pays this
                    # query's CPU-cache misses for the other.
                    engine.execute(query)
                    start = time.perf_counter()
                    result = engine.execute(query)
                    elapsed = time.perf_counter() - start
                    samples[mode][index].append(elapsed)
                    assert result.record_ids == reference[index]

    # Per (query, configuration): the mean of the K smallest samples —
    # robust to one slow AND one lucky sample.
    K_FASTEST = 3

    def trimmed_best(mode: str, index: int) -> float:
        fastest = sorted(samples[mode][index])[:K_FASTEST]
        return sum(fastest) / len(fastest)

    def overheads():
        best = {
            mode: sum(trimmed_best(mode, i) for i in range(len(queries)))
            for mode in MODES
        }
        return best, best["monitoring"] / best["baseline"] - 1.0

    rounds_run = ROUNDS
    try:
        # Warm-up: populate curve caches and pin bit-identity across both
        # configurations before any timed sample.
        reference = None
        for mode in MODES:
            _configure(mode)
            ids = [r.record_ids for r in engine.execute_many(queries, parallel=False)]
            if reference is None:
                reference = ids
            assert ids == reference, f"results changed under {mode}"
        _configure("baseline")

        gc.collect()
        gc.disable()
        run_rounds(ROUNDS, reference)
        best, monitoring_overhead = overheads()
        for _ in range(MAX_RESCUE_BATCHES):
            if monitoring_overhead < MONITORING_BAR:
                break
            run_rounds(ROUNDS // 2, reference)
            rounds_run += ROUNDS // 2
            best, monitoring_overhead = overheads()
    finally:
        gc.enable()
        if hub.running:
            hub.stop()

    ticks = hub.scraper.ticks
    rows = [
        ["baseline (no hub)", f"{best['baseline'] * 1e3:.2f}", "-"],
        ["monitoring (20 Hz scrape + SLO + alerts)",
         f"{best['monitoring'] * 1e3:.2f}",
         f"{monitoring_overhead * 100:+.2f}%"],
    ]
    print_table(
        f"Monitoring overhead — {NUM_QUERIES} conjunctive queries × "
        f"{rounds_run} rounds, per-query best-{K_FASTEST} mean, warm cache, "
        f"{ticks} scrape ticks",
        ["configuration", "sum of bests ms", "overhead"],
        rows,
    )

    payload = {
        "benchmark": "monitoring_overhead",
        "num_records": NUM_RECORDS,
        "num_queries": NUM_QUERIES,
        "rounds": rounds_run,
        "scrape_interval": SCRAPE_INTERVAL,
        "scrape_ticks": ticks,
        "baseline_seconds": best["baseline"],
        "monitoring_seconds": best["monitoring"],
        "monitoring_overhead": monitoring_overhead,
        "monitoring_bar": MONITORING_BAR,
        "results_identical": True,
    }
    print("JSON: " + json.dumps(payload, default=float))

    assert ticks > 0, "the scraper never ticked: the hub was not measured live"
    assert monitoring_overhead < MONITORING_BAR, (
        f"monitoring overhead {monitoring_overhead:.2%} breaches the "
        f"{MONITORING_BAR:.0%} bar"
    )
