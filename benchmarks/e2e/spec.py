"""The benchmark's metric names, units, directions and bounds.

``BENCHMARK.json`` at the repository root lists exactly these; the smoke test
fails when the two drift apart.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen; ``None``
    #: for per-layer metrics, which explain a change but do not gate it.
    bound: float | None = None


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

DISTANCES = ("hamming", "edit", "jaccard", "euclidean")

PER_LAYER: Tuple[Metric, ...] = (
    Metric("featurization.transform_ms_per_op", "ms", "lower"),
    *(Metric(f"featurization.transform_ms.{d}", "ms", "lower") for d in DISTANCES),
    Metric("core.infer_self_ms_per_op", "ms", "lower"),
    Metric("core.infer_calls_per_op", "count", "lower"),
    Metric("core.infer_batch_mean", "count", "higher"),
    Metric("core.manager_self_ms_per_update", "ms", "lower"),
    Metric("core.relabel_ms_per_update", "ms", "lower"),
    Metric("core.retrain_ms_per_update", "ms", "lower"),
    Metric("core.retrains", "count", "lower"),
    Metric("core.q_error_mean", "ratio", "lower"),
    Metric("serving.self_ms_per_op", "ms", "lower"),
    Metric("serving.calls_per_op", "count", "lower"),
    Metric("serving.cache_hit_rate", "share", "higher"),
    Metric("serving.cache_evictions", "count", "lower"),
    Metric("serving.cache_invalidations", "count", "lower"),
    Metric("baselines.part_histogram_ms_per_op", "ms", "lower"),
    Metric("optimizer.gph_self_ms_per_plan", "ms", "lower"),
    Metric("optimizer.gph_plan_share", "share", "higher"),
    Metric("engine.planner_self_ms_per_op", "ms", "lower"),
    Metric("engine.executor_self_ms_per_op", "ms", "lower"),
    Metric("engine.feedback_ms_per_op", "ms", "lower"),
    Metric("engine.other_ms_per_op", "ms", "lower"),
    Metric("engine.rows_examined_per_result", "ratio", "lower"),
    Metric("engine.driver_optimal_share", "share", "higher"),
    Metric("engine.drift_events", "count", "lower"),
    Metric("engine.update_self_ms_per_update", "ms", "lower"),
    Metric("engine.update_p50_ms", "ms", "lower"),
    Metric("engine.update_mean_ms", "ms", "lower"),
    Metric("selection.probe_ms_per_op", "ms", "lower"),
    *(Metric(f"selection.probe_ms.{d}", "ms", "lower") for d in DISTANCES),
    Metric("selection.candidates_per_op", "count", "lower"),
    Metric("selection.insert_ms_per_update", "ms", "lower"),
    Metric("selection.delete_ms_per_update", "ms", "lower"),
    Metric("selection.compactions", "count", "lower"),
    Metric("selection.compact_ms_total", "ms", "lower"),
    Metric("selection.tombstone_share_end", "share", "lower"),
    Metric("distances.verify_ms_per_op", "ms", "lower"),
    Metric("distances.rows_verified_per_op", "count", "lower"),
    Metric("sharding.fanout_self_ms_per_op", "ms", "lower"),
    Metric("sharding.shard_probe_sum_ms_per_op", "ms", "lower"),
    Metric("sharding.slowest_shard_share", "share", "lower"),
    Metric("sharding.merged_curve_self_ms_per_op", "ms", "lower"),
    Metric("sharding.update_route_self_ms_per_update", "ms", "lower"),
    Metric("runtime.tasks_per_op", "count", "lower"),
    Metric("runtime.max_queue_seen", "count", "lower"),
    Metric("runtime.failed_tasks", "count", "lower"),
    Metric("store.save_s", "s", "lower"),
    Metric("store.load_s", "s", "lower"),
    Metric("store.snapshot_mb", "MB", "lower"),
    Metric("run.latency_p99_ms", "ms", "lower"),
    Metric("run.latency_p99_samples", "count", "higher"),
    Metric("trace.overhead_share", "share", "lower"),
    Metric("trace.accounted_share", "share", "higher"),
)
