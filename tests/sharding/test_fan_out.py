"""Where a shard fan-out runs: the decision, and what must not depend on it.

``fan_out_mode`` chooses between the calling thread, the runtime's thread
pool and worker processes from inputs the selector observes.  The first class
pins the decision table with injected inputs (no timing); the rest pins that
the choice moves wall-clock only — results and per-shard metrics are the same
in kind, in count and in *registry* wherever the tasks ran.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sampling import UniformSamplingEstimator
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.obs import default_registry
from repro.runtime import Runtime, fork_available
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.selection.hamming_index import PackedHammingSelector
from repro.serving.telemetry import ServingTelemetry
from repro.sharding import ShardedSelector
from repro.sharding import selector as selector_module
from repro.sharding.selector import (
    SHARD_POOL,
    SHARD_PROCESS_POOL,
    THREAD_DISPATCH_FLOOR_SECONDS,
    fan_out_mode,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)

FLOOR = THREAD_DISPATCH_FLOOR_SECONDS
BELOW, ABOVE = FLOOR / 2, FLOOR * 2


def thread_dispatch():
    """The thread path through the decision's inputs: floor 0, two cores."""
    return mock.patch.multiple(
        selector_module, THREAD_DISPATCH_FLOOR_SECONDS=0.0, usable_cores=lambda: 2
    )


class TestDecisionTable:
    @pytest.mark.parametrize(
        "parallel, num_tasks, planes, cores, mean, expected",
        [
            # Planes published: worker processes, whatever else holds.
            (True, 4, True, 1, 0.0, "process"),
            (True, 4, True, 2, ABOVE, "process"),
            (True, 1, True, 2, 0.0, "process"),
            # No measurement yet reads 0.0: inline.
            (True, 4, False, 2, 0.0, "inline"),
            # Two cores: the floor decides; reaching it is enough.
            (True, 4, False, 2, BELOW, "inline"),
            (True, 4, False, 2, FLOOR, "thread"),
            (True, 4, False, 2, ABOVE, "thread"),
            (True, 4, False, 8, ABOVE, "thread"),
            # One usable core: nothing to overlap, however large the tasks.
            (True, 4, False, 1, BELOW, "inline"),
            (True, 4, False, 1, FLOOR, "inline"),
            (True, 4, False, 1, ABOVE, "inline"),
            # One task: nothing to overlap either.
            (True, 1, False, 2, ABOVE, "inline"),
            # parallel=False never dispatches.
            (False, 4, False, 2, ABOVE, "inline"),
            (False, 4, False, 1, 0.0, "inline"),
        ],
    )
    def test_fan_out_mode(self, parallel, num_tasks, planes, cores, mean, expected):
        assert fan_out_mode(parallel, num_tasks, planes, cores, mean) == expected

    def test_the_floor_is_positive_so_an_unmeasured_op_runs_inline(self):
        assert FLOOR > 0.0

    def test_selector_feeds_the_decision_what_it_observed(self):
        """The inputs are read where the table says: the meter's mean for the
        op, the usable cores, the floor — and the choice shows in stats()."""
        rng = np.random.default_rng(5)
        records = [row for row in rng.integers(0, 2, size=(64, 32)).astype(np.uint8)]
        runtime = Runtime()
        selector = ShardedSelector(
            records, PackedHammingSelector, num_shards=4, runtime=runtime
        )
        try:
            assert selector.stats()["last_fan_out"] is None
            assert selector.stats()["mean_task_seconds"] == {}
            selector.query(records[0], 6.0)
            stats = selector.stats()
            assert stats["last_fan_out"] == "inline"
            assert 0.0 < stats["mean_task_seconds"]["query"] < FLOOR
            assert runtime.pool_names() == []

            with thread_dispatch():
                selector.query(records[0], 6.0)
                assert selector.stats()["last_fan_out"] == "thread"
                # Another op is metered on its own; one core keeps it inline
                # whatever the floor.
                with mock.patch.object(selector_module, "usable_cores", lambda: 1):
                    selector.cardinality(records[0], 6.0)
                    assert selector.stats()["last_fan_out"] == "inline"
            assert runtime.pool_names() == [SHARD_POOL]
            assert runtime.stats()[SHARD_POOL]["submitted"] == 4
            assert set(selector.stats()["mean_task_seconds"]) == {"cardinality", "query"}

            selector.parallel = False
            with thread_dispatch():
                selector.query(records[0], 6.0)
            assert selector.stats()["last_fan_out"] == "inline"
            assert runtime.stats()[SHARD_POOL]["submitted"] == 4
        finally:
            runtime.shutdown()

    def test_meter_follows_the_tasks_and_is_dropped_by_snapshots(self, tmp_path):
        from repro.store import load_component, save_component

        rng = np.random.default_rng(6)
        records = [row for row in rng.integers(0, 2, size=(40, 32)).astype(np.uint8)]
        selector = ShardedSelector(
            records, PackedHammingSelector, num_shards=2, runtime=Runtime()
        )
        meter = selector._meter
        for _ in range(meter.WINDOW):
            meter.observe("query", 1.0)
        assert meter.mean("query") == pytest.approx(1.0)
        for _ in range(8 * meter.WINDOW):
            meter.observe("query", 3.0)  # shards grew: the mean follows
        assert meter.mean("query") == pytest.approx(3.0, rel=1e-3)

        save_component(selector, tmp_path / "snap")
        restored = load_component(tmp_path / "snap")
        assert restored.stats()["last_fan_out"] is None
        assert restored.stats()["mean_task_seconds"] == {}
        assert restored.query(records[0], 6.0) == selector.query(records[0], 6.0)


# --------------------------------------------------------------------------- #
# Three modes, one answer, one set of metrics
# --------------------------------------------------------------------------- #
KINDS = {
    "hamming": (
        lambda rng, n: [r for r in rng.integers(0, 2, size=(n, 24)).astype(np.uint8)],
        PackedHammingSelector,
        [3.0, 7.0, 11.0],
    ),
    "euclidean": (
        lambda rng, n: [r for r in rng.normal(size=(n, 6))],
        BallIndexEuclideanSelector,
        [0.8, 1.9, 3.1],
    ),
}


def _run_op(selector, op, records, thetas):
    probes = records[:3]
    if op == "query":
        return [selector.query(probe, thetas[1]) for probe in probes]
    if op == "query_many":
        return selector.query_many(probes, thetas)
    if op == "cardinality":
        return [selector.cardinality(probe, thetas[1]) for probe in probes]
    return [selector.cardinality_curve(probe, thetas).tolist() for probe in probes]


def _shard_metric_counts(registry):
    """{(metric, op, shard): count} for every ``repro_shard_*`` series."""
    counts = {}
    for metric in registry.collect():
        if not metric.name.startswith("repro_shard_task"):
            continue
        labels = dict(metric.labels)
        exported = metric.export()
        value = exported["count"] if exported["type"] == "histogram" else exported["value"]
        counts[(metric.name, labels["op"], int(labels["shard"]))] = int(value)
    return counts


def _default_registry_shard_series():
    return _shard_metric_counts(default_registry())


@needs_fork
@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    num_shards=st.integers(min_value=1, max_value=6),
    op=st.sampled_from(["query", "query_many", "cardinality", "cardinality_curve"]),
    num_records=st.integers(min_value=12, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_inline_thread_and_process_fan_outs_agree(kind, num_shards, op, num_records, seed):
    make_records, selector_cls, thetas = KINDS[kind]
    records = make_records(np.random.default_rng(seed), num_records)
    before = _default_registry_shard_series()
    outcomes = {}
    for mode in ("inline", "thread", "process"):
        telemetry = ServingTelemetry()
        runtime = Runtime(telemetry=telemetry)
        selector = ShardedSelector(
            records,
            selector_cls,
            num_shards=num_shards,
            partitioner="round_robin",
            runtime=runtime,
            backend="process" if mode == "process" else "thread",
        )
        try:
            if mode == "thread":
                with thread_dispatch():
                    answer = _run_op(selector, op, records, thetas)
            else:
                answer = _run_op(selector, op, records, thetas)
            pools = runtime.pool_names()
        finally:
            runtime.shutdown()
        # One shard has nothing to overlap: the in-process modes both loop.
        ran = "inline" if mode == "thread" and num_shards == 1 else mode
        assert selector.stats()["last_fan_out"] == ran
        assert pools == {
            "inline": [], "thread": [SHARD_POOL], "process": [SHARD_PROCESS_POOL]
        }[ran]
        outcomes[mode] = (answer, _shard_metric_counts(telemetry.metrics))

    unsharded = selector_cls(records)
    if op == "query_many":
        expected = [unsharded.query(p, theta) for p, theta in zip(records[:3], thetas)]
    else:
        expected = _run_op(unsharded, op, records, thetas)
    calls = 1 if op == "query_many" else 3
    for mode, (answer, counts) in outcomes.items():
        assert answer == expected, mode
        assert counts == {
            (name, op, shard): calls
            for name in ("repro_shard_tasks_total", "repro_shard_task_seconds")
            for shard in range(num_shards)
        }, mode
    # An engine-less selector WITH a telemetry'd runtime leaks nothing into
    # the process default registry, whichever way its tasks ran.
    assert _default_registry_shard_series() == before


# --------------------------------------------------------------------------- #
# One registry (the bug: inline tasks used to report to the default registry)
# --------------------------------------------------------------------------- #
def _sharded_engine(records, **shard_options):
    engine = SimilarityQueryEngine()
    engine.register_sharded_attribute(
        "vec",
        records,
        "hamming",
        lambda shard_records, shard: UniformSamplingEstimator(
            shard_records, "hamming", sample_ratio=0.5, seed=shard
        ),
        num_shards=4,
        partitioner="round_robin",
        theta_max=8.0,
        **shard_options,
    )
    return engine


class TestOneRegistry:
    @pytest.fixture(scope="class")
    def records(self):
        rng = np.random.default_rng(17)
        return [row for row in rng.integers(0, 2, size=(48, 16)).astype(np.uint8)]

    def _serve(self, engine, records, thread=False):
        """Warm-up and ten driver queries; returns the ids, what the engine
        registry then counts, and the fan-out mode the selector last took."""
        queries = [SimilarityPredicate("vec", records[i], 5.0) for i in range(10)]
        with thread_dispatch() if thread else contextlib.nullcontext():
            engine.execute(queries[0])
            results = engine.execute_many(queries)
        selector = engine.catalog.get("vec").selector
        counts = _shard_metric_counts(engine.service.telemetry.metrics)
        return [r.record_ids for r in results], counts, selector.stats()["last_fan_out"]

    def test_every_mode_reports_to_the_engine_registry(self, records):
        before = _default_registry_shard_series()
        served = {
            "inline": self._serve(_sharded_engine(records), records),
            "thread": self._serve(_sharded_engine(records), records, thread=True),
            "never": self._serve(_sharded_engine(records, parallel=False), records),
        }
        assert served["inline"][2] == "inline"
        assert served["thread"][2] == "thread"
        assert served["never"][2] == "inline"
        expected_counts = {
            (name, "query", shard): 11
            for name in ("repro_shard_tasks_total", "repro_shard_task_seconds")
            for shard in range(4)
        }
        for mode, (ids, counts, _) in served.items():
            assert ids == served["inline"][0], mode
            assert counts == expected_counts, mode
        assert _default_registry_shard_series() == before

    @needs_fork
    def test_process_shards_report_the_same_counts(self):
        rng = np.random.default_rng(18)
        records = [row for row in rng.integers(0, 2, size=(48, 16)).astype(np.uint8)]
        queries = [SimilarityPredicate("vec", records[i], 5.0) for i in range(6)]
        before = _default_registry_shard_series()
        counts = {}
        for mode, options in (
            ("inline", {}),
            ("never", {"parallel": False}),
            ("process", {"backend": "process"}),
        ):
            engine = SimilarityQueryEngine()
            engine.register_sharded_attribute(
                "vec",
                records,
                "hamming",
                lambda shard_records, shard: UniformSamplingEstimator(
                    shard_records, "hamming", sample_ratio=0.5, seed=shard
                ),
                num_shards=4,
                theta_max=8.0,
                **options,
            )
            try:
                engine.execute_many(queries)
                assert engine.catalog.get("vec").selector.stats()["last_fan_out"] == (
                    "process" if mode == "process" else "inline"
                )
            finally:
                engine.runtime.shutdown()
            counts[mode] = _shard_metric_counts(engine.service.telemetry.metrics)
        assert counts["inline"] == counts["never"] == counts["process"]
        assert set(counts["inline"].values()) == {len(queries)}
        assert _default_registry_shard_series() == before
