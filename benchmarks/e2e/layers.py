"""Per-layer metrics of one traced repeat, from its spans.

Time metrics use the spans of the latency phase (``_per_op``, one request in
flight, clean span trees) and of the update phase (``_per_update``); counts
that come from the program's public stats are added by the runner.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List

from benchmarks.e2e.spec import DISTANCES
from benchmarks.e2e.tracing import Span

_INFER = ("CardNetEstimator.estimate_curve_many", "CardNetEstimator.estimate_batch")
_PROBE = ("query", "verified_candidates")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _method(span: Span) -> str:
    return span.name.rsplit(".", 1)[-1]


def layer_metrics(spans: Iterable[Span], ops: int, updates: int) -> Dict[str, float]:
    reads = [s for s in spans if s.phase == "latency"]
    writes = [s for s in spans if s.phase == "update"]
    per_op = 1.0 / max(ops, 1)
    per_update = 1.0 / max(updates, 1)

    def self_of(group: List[Span], *names: str) -> float:
        return sum(s.self_time for s in group if s.name in names)

    def layer_self(group: List[Span], layer: str) -> float:
        return sum(s.self_time for s in group if s.layer == layer)

    def duration_of(group: List[Span], *names: str) -> float:
        return sum(s.duration for s in group if s.name in names)

    metrics: Dict[str, float] = {}

    # featurization ------------------------------------------------------ #
    metrics["featurization.transform_ms_per_op"] = _ms(layer_self(reads, "featurization")) * per_op
    for distance in DISTANCES:
        # Per record transformed, threshold mapping included: on a non-canonical
        # grid the θ → τ map can cost more than the record's own features.
        tagged = [s for s in reads if s.layer == "featurization" and s.tag == distance]
        records = sum(s.count for s in tagged if _method(s) == "transform_records")
        metrics[f"featurization.transform_ms.{distance}"] = (
            _ms(sum(s.self_time for s in tagged)) / records if records else 0.0
        )

    # core --------------------------------------------------------------- #
    inference = [s for s in reads if s.name in _INFER]
    metrics["core.infer_self_ms_per_op"] = _ms(sum(s.self_time for s in inference)) * per_op
    metrics["core.infer_calls_per_op"] = len(inference) * per_op
    metrics["core.infer_batch_mean"] = (
        sum(s.count for s in inference) / len(inference) if inference else 0.0
    )
    metrics["core.manager_self_ms_per_update"] = _ms(self_of(
        writes, "IncrementalUpdateManager.process", "IncrementalUpdateManager.revalidate"
    )) * per_update
    metrics["core.relabel_ms_per_update"] = _ms(duration_of(
        writes, "incremental.relabel_delta", "incremental.relabel"
    )) * per_update
    # Retrains also fire from drift repair inside a read; both are counted.
    retrains = [s for s in reads + writes if s.name == "CardNetEstimator.incremental_fit"]
    metrics["core.retrain_ms_per_update"] = _ms(sum(s.duration for s in retrains)) * per_update
    metrics["core.retrains"] = float(len(retrains))

    # serving ------------------------------------------------------------ #
    metrics["serving.self_ms_per_op"] = _ms(layer_self(reads, "serving")) * per_op
    metrics["serving.calls_per_op"] = sum(1 for s in reads if s.layer == "serving") * per_op
    metrics["baselines.part_histogram_ms_per_op"] = _ms(layer_self(reads, "baselines")) * per_op

    # optimizer ---------------------------------------------------------- #
    gph = [s for s in reads if s.name == "GPHQueryProcessor.plan"]
    metrics["optimizer.gph_self_ms_per_plan"] = (
        _ms(sum(s.self_time for s in gph)) / len(gph) if gph else 0.0
    )
    metrics["optimizer.gph_plan_share"] = len(gph) * per_op

    # engine ------------------------------------------------------------- #
    metrics["engine.planner_self_ms_per_op"] = _ms(self_of(
        reads, "QueryPlanner.plan_many", "QueryPlanner.iter_plans"
    )) * per_op
    metrics["engine.executor_self_ms_per_op"] = _ms(self_of(reads, "QueryExecutor.execute")) * per_op
    metrics["engine.feedback_ms_per_op"] = _ms(duration_of(reads, "FeedbackMonitor.observe")) * per_op
    metrics["engine.other_ms_per_op"] = _ms(self_of(
        reads, "SimilarityQueryEngine.execute", "SimilarityQueryEngine.execute_many"
    )) * per_op
    metrics["engine.update_self_ms_per_update"] = _ms(
        self_of(writes, "SimilarityQueryEngine.apply_update")
    ) * per_update

    # selection ---------------------------------------------------------- #
    probes = [s for s in reads if s.layer == "selection" and _method(s) in _PROBE]
    metrics["selection.probe_ms_per_op"] = _ms(sum(s.self_time for s in probes)) * per_op
    for distance in DISTANCES:
        metrics[f"selection.probe_ms.{distance}"] = _ms(_median([
            s.duration for s in probes
            if s.tag == distance and (s.parent is None or s.parent.layer != "selection")
        ]))
    top_level = [
        s for s in writes
        if s.layer == "selection" and (s.parent is None or s.parent.layer != "selection")
    ]
    metrics["selection.insert_ms_per_update"] = _ms(sum(
        s.duration for s in top_level if _method(s) == "insert_many"
    )) * per_update
    metrics["selection.delete_ms_per_update"] = _ms(sum(
        s.duration for s in top_level if _method(s) == "delete_many"
    )) * per_update
    # compact() returns the rows it reclaimed; 0 means it had nothing to do.
    compactions = [
        s for s in reads + writes
        if s.layer == "selection" and _method(s) == "compact" and (s.value or 0) > 0
        and (s.parent is None or _method(s.parent) != "compact")
    ]
    metrics["selection.compactions"] = float(len(compactions))
    metrics["selection.compact_ms_total"] = _ms(sum(s.duration for s in compactions))

    # distances ---------------------------------------------------------- #
    metrics["distances.verify_ms_per_op"] = _ms(sum(
        s.duration for s in reads
        if s.layer == "distances" and s.parent is not None
        and s.parent.name == "QueryExecutor.execute"
    )) * per_op

    # sharding ----------------------------------------------------------- #
    fanouts = [s for s in reads if s.name == "ShardedSelector.query_with_counts"]
    metrics["sharding.fanout_self_ms_per_op"] = _ms(sum(s.self_time for s in fanouts)) * per_op
    fanout_ids = {s.index for s in fanouts}
    shard_probes: Dict[int, List[float]] = {}
    for s in reads:
        if s.layer == "selection" and s.parent is not None and s.parent.index in fanout_ids:
            shard_probes.setdefault(s.parent.index, []).append(s.duration)
    metrics["sharding.shard_probe_sum_ms_per_op"] = _ms(
        sum(sum(durations) for durations in shard_probes.values())
    ) * per_op
    shares = [
        max(shard_probes[s.index]) / s.duration
        for s in fanouts if s.index in shard_probes and s.duration > 0
    ]
    metrics["sharding.slowest_shard_share"] = sum(shares) / len(shares) if shares else 0.0
    metrics["sharding.merged_curve_self_ms_per_op"] = _ms(
        self_of(reads, "MergedShardEstimator.estimate_curve_many")
    ) * per_op
    metrics["sharding.update_route_self_ms_per_update"] = _ms(self_of(
        writes, "ShardedSelector.route_operation", "ShardedSelector.apply_routed"
    )) * per_update

    # the run itself ----------------------------------------------------- #
    # Share of request wall time that lies in spans below the entry point:
    # what the entry point itself spends (engine.other) is named, not located.
    roots = [s for s in reads if s.parent is None]
    wall = sum(s.duration for s in roots)
    entry = sum(s.self_time for s in roots) + self_of(reads, "SimilarityQueryEngine.execute_many")
    metrics["trace.accounted_share"] = 1.0 - entry / wall if wall > 0 else 0.0
    return metrics
