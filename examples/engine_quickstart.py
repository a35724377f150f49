"""Engine quickstart: declarative similarity queries, end to end.

Builds a two-attribute table (a Hamming-coded image signature and a Euclidean
embedding per record), registers both attributes in a
:class:`repro.engine.SimilarityQueryEngine`, and walks the full pipeline:

1. EXPLAIN — the planner picks the driving predicate from served estimates
   (and a GPH per-part allocation for the Hamming index) before running;
2. execute — exact results through the indexes, vectorized verification;
3. feedback — every query feeds its observed cardinality back; after an
   unannounced dataset update the drift monitor flushes stale curves and
   revalidates through the incremental-update manager.

Run with:  python examples/engine_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.datasets import make_binary_dataset
from repro.datasets.updates import UpdateOperation
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.baselines import UniformSamplingEstimator
from repro.workloads import build_workload


def main() -> None:
    print("Building a two-attribute table (hamming signature + euclidean embedding) ...")
    signatures = make_binary_dataset(
        num_records=800, dimension=32, num_clusters=8, flip_probability=0.08,
        theta_max=12, seed=0, name="HM-Signatures",
    )
    rng = np.random.default_rng(1)
    # A dense embedding aligned row-by-row with the signatures.
    embeddings = signatures.records.astype(np.float64)
    embeddings += rng.normal(0.0, 0.15, embeddings.shape)
    embeddings /= np.maximum(np.linalg.norm(embeddings, axis=1, keepdims=True), 1e-12)

    print("Training a CardNet-A estimator for the signature attribute ...")
    workload = build_workload(signatures, query_fraction=0.05, num_thresholds=6, seed=1)
    signature_estimator = CardNetEstimator.for_dataset(
        signatures, accelerated=True, epochs=12, vae_pretrain_epochs=4, seed=0
    )
    signature_estimator.fit(workload.train, workload.validation)

    engine = SimilarityQueryEngine(drift_threshold=6.0, min_feedback_observations=6)
    engine.register_attribute(
        "signature", signatures.records, "hamming", signature_estimator,
        theta_max=signatures.theta_max, gph_part_size=8,
    )
    engine.register_attribute(
        "embedding", embeddings, "euclidean",
        UniformSamplingEstimator(embeddings, "euclidean", sample_ratio=0.1, seed=0),
        theta_max=1.2,
    )
    # The manager shares the attribute's own index: one maintained state.
    manager = IncrementalUpdateManager(
        signature_estimator,
        engine.catalog.get("signature").selector,
        workload.train,
        workload.validation,
        max_epochs_per_update=3,
    )
    engine.attach_manager("signature", manager, route_updates=False)

    probe_id = 7
    query = ConjunctiveQuery([
        SimilarityPredicate("signature", signatures.records[probe_id], 6.0),
        SimilarityPredicate("embedding", embeddings[probe_id], 0.5),
    ])

    print("\nEXPLAIN:")
    print(engine.explain(query).describe())

    result = engine.execute(query)
    print(f"\nExecuted: {result.cardinality} results, "
          f"driver examined {result.driver_candidates} candidates "
          f"(actual driver cardinality {result.driver_actual}), "
          f"residual verification touched {result.verification_examined} records.")

    print("\nServing a small query stream (feedback accumulates) ...")
    records = engine.catalog.get("signature").records
    stream = [
        SimilarityPredicate("signature", records[int(i)], float(rng.integers(3, 10)))
        for i in rng.integers(0, len(records), size=30)
    ]
    engine.execute_many(stream)
    print(f"  online q-error: {engine.feedback.online_q_error('signature'):.2f}, "
          f"drift events: {len(engine.feedback.events)}")

    print("\nDoubling the dataset behind the estimator's back ...")
    copies = [records[int(i)] for i in rng.integers(0, len(records), size=len(records))]
    engine.apply_update("signature", UpdateOperation("insert", copies))
    records = engine.catalog.get("signature").records
    stream = [
        SimilarityPredicate("signature", records[int(i)], float(rng.integers(3, 10)))
        for i in rng.integers(0, len(records), size=30)
    ]
    engine.execute_many(stream)
    print(f"  online q-error: {engine.feedback.online_q_error('signature'):.2f}, "
          f"drift events: {len(engine.feedback.events)}")
    for event in engine.feedback.events:
        revalidation = event.revalidation
        action = (
            f"retrained {revalidation.epochs_run} epochs "
            f"(MSLE {revalidation.validation_msle_before:.2f} -> "
            f"{revalidation.validation_msle_after:.2f})"
            if revalidation is not None and revalidation.retrained
            else "revalidated, no retrain needed"
        )
        print(f"  drift on {event.endpoint!r}: window q-error "
              f"{event.window_q_error:.1f}, {event.curves_invalidated} curves flushed, {action}")

    cache = engine.stats()["service"]["cache"]
    print(f"\nService cache: {cache['size']} curves, hit rate {cache['hit_rate']:.0%}.")
    print("The engine planned from served estimates, answered exactly from the")
    print("indexes, and the feedback loop caught the unannounced update.")


if __name__ == "__main__":
    main()
