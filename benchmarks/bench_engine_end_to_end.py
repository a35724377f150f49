"""Engine end-to-end smoke benchmark: query latency + the feedback loop.

Two sections, each emitting a machine-readable ``JSON:`` line:

* **engine vs brute force** — a conjunctive-query workload over a ≥1k-record
  multi-attribute relation, answered (a) by the engine (estimator-driven
  planning, index-backed driver, vectorized residual verification) and (b) by
  the brute-force scan a system without an optimizer would run (every
  predicate evaluated over every record, then intersected).  Results must be
  identical; the engine must be faster; planner overhead is reported
  separately.
* **feedback loop** — a Hamming attribute served by a trained CardNet-A with
  an :class:`IncrementalUpdateManager` attached to the feedback monitor only
  (updates hit the data plane directly, simulating a model-maintenance
  pipeline that nobody notified).  After the dataset doubles, observed
  cardinalities drift past the threshold, the monitor flushes cached curves
  and triggers revalidation, and the manager retrains incrementally.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from artifacts import emit_json
from repro.baselines import UniformSamplingEstimator
from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.datasets import make_multi_attribute_relation
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.metrics import mean_q_error
from repro.selection import LinearScanSelector
from repro.workloads import Workload, build_workload

NUM_RECORDS = 2500
NUM_QUERIES = 40


@pytest.fixture(scope="module")
def big_relation():
    return make_multi_attribute_relation(
        num_records=NUM_RECORDS, attribute_dims=(24, 24, 16),
        cluster_std_range=(0.16, 0.24), seed=12, name="Engine-Relation",
    )


@pytest.fixture(scope="module")
def conjunctive_setup(big_relation):
    engine = SimilarityQueryEngine()
    for attribute, matrix in big_relation.attributes.items():
        engine.register_attribute(
            attribute,
            matrix,
            "euclidean",
            UniformSamplingEstimator(matrix, "euclidean", sample_ratio=0.05, seed=0),
            theta_max=1.0,
        )
    rng = np.random.default_rng(21)
    queries = []
    for _ in range(NUM_QUERIES):
        record_id = int(rng.integers(0, len(big_relation)))
        predicates = [
            SimilarityPredicate(
                attribute,
                big_relation.attributes[attribute][record_id]
                + rng.normal(0.0, 0.04, big_relation.attributes[attribute].shape[1]),
                float(rng.uniform(0.25, 0.45)),
            )
            for attribute in big_relation.attribute_names
        ]
        queries.append(ConjunctiveQuery(predicates))
    return engine, queries


def test_engine_beats_brute_force(conjunctive_setup, big_relation, print_table):
    engine, queries = conjunctive_setup

    # Brute force: every predicate scanned over every record, then intersected.
    scans = {
        attribute: LinearScanSelector(matrix, get_distance("euclidean"))
        for attribute, matrix in big_relation.attributes.items()
    }
    start = time.perf_counter()
    brute_results = []
    for query in queries:
        matches = None
        for predicate in query.predicates:
            ids = set(scans[predicate.attribute].query(predicate.record, predicate.theta))
            matches = ids if matches is None else matches & ids
        brute_results.append(sorted(matches))
    brute_seconds = time.perf_counter() - start

    start = time.perf_counter()
    results = engine.execute_many(queries)
    engine_seconds = time.perf_counter() - start
    planner_seconds = sum(result.plan.planning_seconds for result in results)

    assert [result.record_ids for result in results] == brute_results
    rows = [
        ["brute-force scan", f"{brute_seconds:.4f}", "-", "-"],
        [
            "engine",
            f"{engine_seconds:.4f}",
            f"{planner_seconds:.4f}",
            f"{brute_seconds / engine_seconds:.1f}x",
        ],
    ]
    print_table(
        f"Engine vs brute force — {NUM_QUERIES} conjunctive queries, "
        f"{NUM_RECORDS} records × {len(big_relation.attribute_names)} attributes",
        ["path", "total s", "planning s", "speedup"],
        rows,
    )
    payload = {
        "benchmark": "engine_end_to_end",
        "section": "engine_vs_brute_force",
        "num_records": NUM_RECORDS,
        "num_queries": NUM_QUERIES,
        "brute_force_seconds": brute_seconds,
        "engine_seconds": engine_seconds,
        "planner_seconds": planner_seconds,
        "speedup": brute_seconds / engine_seconds,
        "results_identical": True,
        "service_cache": engine.service.stats()["cache"],
    }
    emit_json("engine_end_to_end", payload)

    # The headline claim: estimator-driven planning + index execution beats
    # scanning every record for every predicate on a >= 1k-record dataset.
    assert engine_seconds < brute_seconds


@pytest.fixture(scope="module")
def hamming_feedback_setup(hm_dataset, hm_workload):
    estimator = CardNetEstimator.for_dataset(
        hm_dataset, accelerated=True, epochs=10, vae_pretrain_epochs=3, seed=0
    )
    estimator.fit(hm_workload.train, hm_workload.validation)
    return estimator


def test_feedback_loop_detects_update_drift(hamming_feedback_setup, hm_dataset, hm_workload, print_table):
    estimator = hamming_feedback_setup
    # Alarm calibrated above the model's known healthy q-error, so phase A
    # (pre-update traffic) stays quiet and only genuine drift fires it.
    baseline_q = mean_q_error(
        Workload.cardinalities(hm_workload.validation),
        estimator.estimate_many(hm_workload.validation),
    )
    drift_threshold = max(1.5, 1.5 * baseline_q)

    engine = SimilarityQueryEngine(
        drift_threshold=drift_threshold, feedback_window=16, min_feedback_observations=8
    )
    engine.register_attribute(
        "hm", hm_dataset.records, "hamming", estimator,
        theta_max=hm_dataset.theta_max, gph_part_size=8,
    )
    # The manager shares the attribute's own index: one maintained state.
    manager = IncrementalUpdateManager(
        estimator,
        engine.catalog.get("hm").selector,
        hm_workload.train,
        hm_workload.validation,
        max_epochs_per_update=4,
    )
    # Feedback-only attachment: updates hit the data plane directly; only the
    # serving-side drift monitor can notice the model went stale.
    engine.attach_manager("hm", manager, route_updates=False)

    rng = np.random.default_rng(5)

    def run_phase(count: int) -> float:
        records = engine.catalog.get("hm").records
        queries = [
            SimilarityPredicate(
                "hm", records[int(i)], float(rng.integers(3, int(hm_dataset.theta_max) - 1))
            )
            for i in rng.integers(0, len(records), size=count)
        ]
        start = time.perf_counter()
        engine.execute_many(queries)
        return count / (time.perf_counter() - start)

    qps_before = run_phase(24)
    events_before = len(engine.feedback.events)

    # Inject updates the manager is never told about: the dataset doubles.
    originals = list(hm_dataset.records)
    picks = rng.integers(0, len(originals), size=len(originals))
    noisy_copies = [
        np.bitwise_xor(originals[int(p)], (rng.random(originals[0].shape[0]) < 0.05).astype(np.uint8))
        for p in picks
    ]
    for start_index in range(0, len(noisy_copies), 200):
        engine.apply_update(
            "hm", UpdateOperation("insert", noisy_copies[start_index : start_index + 200])
        )

    qps_after = run_phase(24)
    drift_events = engine.feedback.events[events_before:]
    endpoint_stats = engine.service.stats()["endpoints"]["hm"]

    rows = [
        ["pre-update", f"{qps_before:.0f}", str(events_before), "-"],
        [
            "post-update",
            f"{qps_after:.0f}",
            str(len(drift_events)),
            str(sum(1 for e in drift_events if e.revalidation and e.revalidation.retrained)),
        ],
    ]
    print_table(
        f"Feedback loop — drift threshold {drift_threshold:.2f} (1.5x healthy q-error)",
        ["phase", "queries/s", "drift events", "retrained"],
        rows,
    )
    payload = {
        "benchmark": "engine_end_to_end",
        "section": "feedback_loop",
        "drift_threshold": drift_threshold,
        "online_q_error": endpoint_stats["mean_q_error"],
        "observations": endpoint_stats["observations"],
        "drift_events": endpoint_stats["drift_events"],
        "cache_hit_rate": endpoint_stats["hit_rate"],
        "events": [
            {
                "window_q_error": event.window_q_error,
                "curves_invalidated": event.curves_invalidated,
                "retrained": bool(event.revalidation and event.revalidation.retrained),
                "epochs_run": event.revalidation.epochs_run if event.revalidation else 0,
            }
            for event in engine.feedback.events
        ],
        "feedback": engine.feedback.snapshot(),
    }
    emit_json("engine_feedback_loop", payload)

    # The loop's contract: quiet while healthy, loud after unnotified updates,
    # and the repair actually retrains the model through the manager.
    assert events_before == 0
    assert engine.feedback.online_q_error("hm") > 0.0
    assert drift_events, "injected updates should trigger drift"
    assert any(
        event.revalidation is not None and event.revalidation.retrained
        for event in drift_events
    )
    assert all(event.curves_invalidated >= 0 for event in drift_events)
