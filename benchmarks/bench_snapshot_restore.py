"""Snapshot/restore: warm-start restore vs retraining.

One section, printing its table and a ``JSON:`` line (no file is written
and no merge is gated: this is the only code timing save → load until
``benchmarks/e2e`` has a snapshot → restore → resume phase; ROADMAP, "Every
serving path has a workload"):

* **warm-start restore** — a trained CardNet-A engine (warm curve cache,
  feedback windows populated) is saved and restored.  Reports snapshot size
  and save/load latency, verifies the restored engine answers the whole
  workload bit-identically (cache hits included), and asserts the headline
  property: restoring is at least 10x faster than retraining the estimator
  from scratch — the snapshot subsystem's reason to exist.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import CardNetEstimator
from repro.datasets import make_binary_dataset
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.store import load_engine, save_engine
from repro.workloads import build_workload

NUM_RECORDS = 1200
DIMENSION = 32
THETA_MAX = 12
EPOCHS = 20
NUM_QUERIES = 80


@pytest.fixture(scope="module")
def snap_dataset():
    return make_binary_dataset(
        num_records=NUM_RECORDS, dimension=DIMENSION, num_clusters=8,
        flip_probability=0.08, theta_max=THETA_MAX, seed=29, name="HM-Snapshot",
    )


@pytest.fixture(scope="module")
def snap_workload(snap_dataset):
    return build_workload(snap_dataset, query_fraction=0.08, num_thresholds=5, seed=31)


def _train_estimator(dataset, workload):
    start = time.perf_counter()
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=EPOCHS, vae_pretrain_epochs=2, seed=13
    )
    estimator.fit(workload.train, workload.validation)
    return estimator, time.perf_counter() - start


@pytest.fixture(scope="module")
def trained_engine(snap_dataset, snap_workload):
    estimator, train_seconds = _train_estimator(snap_dataset, snap_workload)
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "vec", snap_dataset.records, "hamming", estimator, theta_max=THETA_MAX
    )
    return engine, train_seconds


@pytest.fixture(scope="module")
def bench_queries(snap_dataset):
    rng = np.random.default_rng(37)
    picks = rng.integers(0, NUM_RECORDS, size=NUM_QUERIES)
    return [
        SimilarityPredicate("vec", snap_dataset.records[int(i)], float(rng.integers(3, THETA_MAX)))
        for i in picks
    ]


def test_warm_start_restore_vs_retrain(
    trained_engine, bench_queries, snap_dataset, snap_workload, tmp_path_factory, print_table
):
    engine, train_seconds = trained_engine
    baseline = engine.execute_many(bench_queries)  # warms the curve cache
    cached = len(engine.service.cache)
    assert cached > 0

    path = tmp_path_factory.mktemp("snapshot") / "engine"
    start = time.perf_counter()
    info = save_engine(engine, path)
    save_seconds = time.perf_counter() - start

    start = time.perf_counter()
    restored = load_engine(path)
    load_seconds = time.perf_counter() - start

    # Restore equivalence over the whole workload, warm cache included.
    restored_results = restored.execute_many(bench_queries)
    assert [r.record_ids for r in restored_results] == [r.record_ids for r in baseline]
    assert [r.plan.driver.estimated_cardinality for r in restored_results] == [
        r.plan.driver.estimated_cardinality for r in baseline
    ]
    hit_stats = restored.service.telemetry.endpoint("vec")
    assert hit_stats.cache_hits >= NUM_QUERIES  # served from the restored warm set

    # The headline property: warm-start restore vs retraining from scratch.
    _, retrain_seconds = _train_estimator(snap_dataset, snap_workload)
    speedup = retrain_seconds / load_seconds

    print_table(
        f"Snapshot warm-start — {NUM_RECORDS} records, CardNet-A, {cached} cached curves",
        ["path", "seconds"],
        [
            ["train from scratch", f"{retrain_seconds:.3f}"],
            ["save snapshot", f"{save_seconds:.3f}"],
            ["warm-start load", f"{load_seconds:.3f}"],
            ["restore speedup", f"{speedup:.0f}x"],
        ],
    )
    payload = {
        "benchmark": "snapshot_restore",
        "section": "warm_start_vs_retrain",
        "num_records": NUM_RECORDS,
        "epochs": EPOCHS,
        "snapshot_payload_bytes": info.payload_bytes,
        "snapshot_total_bytes": info.total_bytes,
        "num_arrays": info.num_arrays,
        "num_objects": info.num_objects,
        "cached_curves": cached,
        "train_seconds": train_seconds,
        "retrain_seconds": retrain_seconds,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
        "warm_start_speedup": speedup,
        "results_identical": True,
    }
    print("JSON: " + json.dumps(payload, default=float))
    assert speedup >= 10.0, (
        f"warm-start restore ({load_seconds:.3f}s) should beat retraining "
        f"({retrain_seconds:.3f}s) by >= 10x, got {speedup:.1f}x"
    )
