"""Snapshot quickstart: train → save → kill → load → serve.

Trains a CardNet-A estimator, serves it through an engine (warming the curve
cache), snapshots the whole engine to a directory, throws the process state
away, and warm-start restores: the loaded engine answers bit-identically —
trained weights, optimizer moments, selection index, warm cache, feedback
windows all included — without retraining anything.

Run with:  python examples/snapshot_quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.core import CardNetEstimator
from repro.datasets import make_binary_dataset
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.store import inspect_snapshot
from repro.workloads import build_workload


def main() -> None:
    dataset = make_binary_dataset(
        num_records=1500, dimension=32, num_clusters=8, flip_probability=0.08,
        theta_max=12, seed=3, name="HM-Snapshot",
    )
    workload = build_workload(dataset, query_fraction=0.08, num_thresholds=5, seed=5)

    # --- Train once (the expensive part) ---------------------------------- #
    start = time.perf_counter()
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=20, vae_pretrain_epochs=3, seed=0
    )
    estimator.fit(workload.train, workload.validation)
    train_seconds = time.perf_counter() - start
    print(f"trained CardNet-A in {train_seconds:.2f}s")

    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "fingerprints", dataset.records, "hamming", estimator,
        theta_max=dataset.theta_max,
    )
    queries = [
        SimilarityPredicate("fingerprints", dataset.records[i], 6.0) for i in range(40)
    ]
    baseline = engine.execute_many(queries)  # also warms the curve cache
    print(f"warm cache holds {len(engine.service.cache)} curves")

    # --- Save ------------------------------------------------------------- #
    snapshot_dir = Path(tempfile.mkdtemp()) / "engine-snapshot"
    info = engine.save(snapshot_dir)
    print(
        f"saved snapshot: {info.total_bytes / 1024:.0f} KiB, "
        f"{info.num_arrays} arrays, {info.num_objects} objects"
    )
    print(f"inventory: {inspect_snapshot(snapshot_dir).meta}")

    # --- "Kill" the process and warm-start restore ------------------------ #
    del engine, estimator
    start = time.perf_counter()
    restored = SimilarityQueryEngine.load(snapshot_dir)
    load_seconds = time.perf_counter() - start
    results = restored.execute_many(queries)
    identical = all(
        a.record_ids == b.record_ids for a, b in zip(baseline, results)
    )
    hits = restored.service.telemetry.endpoint("fingerprints").cache_hits
    print(
        f"warm-start load in {load_seconds * 1000:.0f}ms "
        f"({train_seconds / load_seconds:.0f}x faster than retraining); "
        f"results identical: {identical}; served {hits} requests from the "
        "restored warm cache"
    )


if __name__ == "__main__":
    main()
