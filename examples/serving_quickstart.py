"""Serving quickstart: many datasets behind one estimation endpoint.

Trains estimators for two different data types (binary vectors under Hamming
distance, sets under Jaccard distance), registers both in one
:class:`repro.serving.EstimationService`, and serves a mixed query stream —
micro-batched, answered from the monotone curve cache, with telemetry.

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CardNetEstimator
from repro.datasets import make_binary_dataset, make_set_dataset
from repro.serving import EstimationService
from repro.workloads import build_workload


def train_estimator(dataset):
    workload = build_workload(dataset, query_fraction=0.05, num_thresholds=6, seed=1)
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=12, vae_pretrain_epochs=4, seed=0
    )
    estimator.fit(workload.train, workload.validation)
    return estimator, workload


def main() -> None:
    print("Training one CardNet-A per dataset ...")
    hamming_dataset = make_binary_dataset(
        num_records=800, dimension=32, num_clusters=8, flip_probability=0.08,
        theta_max=12, seed=0, name="HM-Images",
    )
    jaccard_dataset = make_set_dataset(
        num_records=700, num_clusters=8, universe_size=120, base_set_size=10,
        theta_max=0.4, seed=1, name="JC-Baskets",
    )
    hamming_estimator, hamming_workload = train_estimator(hamming_dataset)
    jaccard_estimator, jaccard_workload = train_estimator(jaccard_dataset)

    print("Registering both behind one service ...")
    service = EstimationService(cache_capacity=512)
    service.register("images/hamming", hamming_estimator, distance_name="hamming")
    service.register("baskets/jaccard", jaccard_estimator, distance_name="jaccard")
    print(f"  endpoints: {service.registry.names()}")

    print("Serving a mixed query stream (batched) ...")
    for endpoint, workload in [
        ("images/hamming", hamming_workload),
        ("baskets/jaccard", jaccard_workload),
    ]:
        examples = workload.test[:60]
        answers = service.estimate_many(
            endpoint,
            [example.record for example in examples],
            [example.theta for example in examples],
        )
        actual = np.asarray([example.cardinality for example in examples], dtype=float)
        error = np.mean(np.abs(answers - actual) / np.maximum(actual, 1.0))
        print(f"  {endpoint}: {len(examples)} queries, mean relative error {error:.2f}")

    print("Re-serving the same records at NEW thresholds (pure cache hits) ...")
    examples = hamming_workload.test[:60]
    rng = np.random.default_rng(3)
    new_thetas = rng.integers(1, int(hamming_dataset.theta_max) + 1, size=len(examples))
    service.estimate_many(
        "images/hamming",
        [example.record for example in examples],
        new_thetas.astype(float),
    )

    stats = service.stats()
    cache = stats["cache"]
    print("\nTelemetry:")
    print(f"  cache: {cache['size']} curves, hit rate {cache['hit_rate']:.0%}, "
          f"{cache['evictions']} evictions")
    for endpoint in service.registry.names():
        row = stats["endpoints"][endpoint]
        print(f"  {endpoint}: {row['requests']:.0f} requests, hit rate {row['hit_rate']:.0%}, "
              f"mean micro-batch {row['mean_batch_size']:.1f}")
    print("\nA cached monotone curve answers every threshold for its record —")
    print("the second pass over known records never touched the model.")


if __name__ == "__main__":
    main()
