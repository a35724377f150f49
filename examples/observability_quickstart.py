"""Observability quickstart: traces, metrics, and EXPLAIN ANALYZE.

Builds a two-attribute engine — a Euclidean embedding on three shards plus an
unsharded auxiliary attribute — then walks the three observability pieces:

1. EXPLAIN ANALYZE — execute one conjunctive query and print the report:
   estimated vs actual cardinality per predicate, q-errors, stage
   wall-times, and the span tree covering every shard task;
2. metrics — the serving telemetry's registry, as a snapshot with
   latency percentiles and in Prometheus text exposition format;
3. slow-query ring — the engine keeps the last N queries over a wall-time
   threshold as plain dicts.

Tracing is off by default (one thread-local read per call site) and never
changes results; what it costs when on is ``trace.overhead_share`` of a
``benchmarks/e2e/run.py --trace 1`` run.

Run with:  python examples/observability_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.obs import disable_tracing, enable_tracing


def sampling_factory(distance_name, **options):
    def factory(shard_records, shard_index):
        return UniformSamplingEstimator(
            shard_records, distance_name, seed=shard_index, **options
        )

    return factory


def main() -> None:
    print("Building a two-attribute engine (one attribute on three shards) ...")

    rng = np.random.default_rng(42)
    embeddings = [row for row in rng.normal(size=(600, 16))]
    aux = [row for row in rng.normal(size=(600, 6))]

    # Keep every query in the slow-query ring for demonstration purposes; a
    # production threshold would be something like 0.5 (seconds).
    engine = SimilarityQueryEngine(slow_query_seconds=0.0, slow_query_capacity=16)
    engine.register_sharded_attribute(
        "embedding",
        embeddings,
        "euclidean",
        sampling_factory("euclidean", sample_ratio=0.2),
        num_shards=3,
        theta_max=8.0,
    )
    engine.register_attribute(
        "aux",
        aux,
        "euclidean",
        UniformSamplingEstimator(aux, "euclidean", sample_ratio=0.2, seed=0),
        theta_max=5.0,
    )

    query = ConjunctiveQuery(
        [
            SimilarityPredicate("embedding", embeddings[7], 4.5),
            SimilarityPredicate("aux", aux[7], 3.0),
        ]
    )
    # Warm the curve caches so the analyzed query reflects steady-state
    # behaviour.
    engine.execute(query)

    print("\n=== EXPLAIN ANALYZE ===")
    enable_tracing()
    try:
        report = engine.explain_analyze(query)
    finally:
        disable_tracing()
    print(report.describe())

    print("\n=== Telemetry snapshot (per-endpoint, with percentiles) ===")
    snapshot = engine.service.telemetry.snapshot()
    for endpoint, stats in sorted(snapshot.items()):
        line = f"  {endpoint}: requests={stats['requests']}"
        if "latency_p95" in stats:
            line += f", p95={stats['latency_p95'] * 1e3:.3f}ms"
        print(line)

    print("\n=== Prometheus exposition (first lines) ===")
    text = engine.service.telemetry.to_prometheus()
    for line in text.splitlines()[:12]:
        print(f"  {line}")
    print("  ...")

    print("\n=== Slow-query ring ===")
    for entry in engine.slow_queries.entries()[-3:]:
        predicates = ", ".join(
            f"{attribute} <= {theta:g}" for attribute, theta in entry["predicates"]
        )
        print(
            f"  {entry['duration_seconds'] * 1e3:.2f}ms driver={entry['driver']} "
            f"[{predicates}] -> {entry['result_count']} rows"
        )

    print("\nOne trace covered planning, the sharded driver fan-out, and")
    print("residual verification; the same registry served percentiles and")
    print("Prometheus text; the ring kept the slowest queries for post-mortems.")


if __name__ == "__main__":
    main()
