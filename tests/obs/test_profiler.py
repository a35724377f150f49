"""Sampling profiler: attribution, collapsed stacks, merge, and the noop.

Synthetic-frame tests pin the collapse/attribution logic without timing;
the live test runs a real sharded workload under the profiler and requires
>=90% of samples attributed to a pool or endpoint.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.obs import (
    NOOP_PROFILER,
    SamplingProfiler,
    active_profiler,
    create_profiler,
    disable_profiling,
    enable_profiling,
    merge_child_state,
    profile_scope,
    profiling_enabled,
    set_active_profiler,
)
from repro.runtime import Runtime
from repro.selection.euclidean_index import BallIndexEuclideanSelector
from repro.sharding import ShardedSelector


@pytest.fixture(autouse=True)
def restore_profiling_switch():
    was_enabled = profiling_enabled()
    previous_active = active_profiler()
    yield
    (enable_profiling if was_enabled else disable_profiling)()
    set_active_profiler(previous_active)


def synthetic_frames():
    """A frames mapping for idents no live thread owns."""
    frame = sys._getframe()
    return {990001: frame, 990002: frame}


class TestSyntheticAttribution:
    def test_scope_label_wins_and_counts_as_attributed(self):
        profiler = SamplingProfiler()
        profiler.register_scope(990001, "endpoint:vec")
        taken = profiler.sample_once(frames=synthetic_frames())
        assert taken == 2
        totals = profiler.label_totals()
        assert totals["endpoint:vec"] == 1
        # The unknown ident fell back to thread:<ident> — unattributed.
        assert totals[f"thread:{990002}"] == 1
        assert profiler.attribution_fraction() == pytest.approx(0.5)

    def test_unregister_scope_restores_fallback(self):
        profiler = SamplingProfiler()
        profiler.register_scope(990001, "endpoint:vec")
        profiler.unregister_scope(990001)
        profiler.sample_once(frames={990001: sys._getframe()})
        assert list(profiler.label_totals()) == [f"thread:{990001}"]

    def test_excluded_threads_are_never_sampled(self):
        profiler = SamplingProfiler()
        profiler.exclude_thread(990001)
        assert profiler.sample_once(frames={990001: sys._getframe()}) == 0
        assert profiler.total_samples == 0

    def test_pool_thread_name_convention(self):
        profiler = SamplingProfiler()
        names = {"repro-execute-3": "pool:execute",
                 "repro-shard-process-0": "pool:shard-process",
                 "MainThread": "thread:MainThread"}
        for name, expected in names.items():
            assert profiler._label_for(123, name, {}) == expected

    def test_child_identity_fallback(self):
        profiler = SamplingProfiler()
        process = multiprocessing.current_process()
        original = process.name
        try:
            process.name = "repro-shard-process-proc-1"
            profiler.adopt_child_identity()
        finally:
            process.name = original
        assert profiler.fallback_label == "pool:shard-process"
        profiler.sample_once(frames={990001: sys._getframe()})
        assert profiler.attribution_fraction() == 1.0

    def test_collapsed_output_format(self):
        profiler = SamplingProfiler()
        profiler.register_scope(990001, "endpoint:vec")
        profiler.sample_once(frames={990001: sys._getframe()})
        profiler.sample_once(frames={990001: sys._getframe()})
        lines = profiler.collapsed().splitlines()
        assert lines  # label;file:func;... count
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack.startswith("endpoint:vec;")
            assert ";test_profiler.py:" in stack
            assert int(count) >= 1

    def test_max_depth_truncates_stacks(self):
        profiler = SamplingProfiler(max_depth=2)
        profiler.register_scope(990001, "endpoint:vec")
        profiler.sample_once(frames={990001: sys._getframe()})
        (key,) = profiler.stacks()
        assert len(key.split(";")) == 3  # label + two frames


class TestStateMerge:
    def test_export_reset_is_a_delta(self):
        profiler = SamplingProfiler()
        profiler.register_scope(990001, "endpoint:vec")
        profiler.sample_once(frames={990001: sys._getframe()})
        state = profiler.export_state(reset=True)
        assert state["total_samples"] == 1
        assert profiler.total_samples == 0
        assert profiler.stacks() == {}

    def test_merge_state_accumulates(self):
        parent = SamplingProfiler()
        parent.merge_state(
            {"stacks": {"pool:shard;a:b": 3}, "total_samples": 3,
             "attributed_samples": 3, "errors": 1}
        )
        parent.merge_state(
            {"stacks": {"pool:shard;a:b": 2, "thread:x;c:d": 1},
             "total_samples": 3, "attributed_samples": 2, "errors": 0}
        )
        assert parent.stacks() == {"pool:shard;a:b": 5, "thread:x;c:d": 1}
        assert parent.total_samples == 6
        assert parent.attribution_fraction() == pytest.approx(5 / 6)
        assert parent.errors == 1

    def test_merge_child_state_targets_active_profiler(self):
        parent = SamplingProfiler()
        set_active_profiler(parent)
        assert merge_child_state({"stacks": {"pool:p;f:g": 1}, "total_samples": 1,
                                  "attributed_samples": 1})
        assert parent.total_samples == 1
        set_active_profiler(None)
        # No active profiler: dropping the child state is correct, not fatal.
        assert not merge_child_state({"stacks": {}, "total_samples": 0})


class TestDisabledPath:
    def test_create_profiler_answers_the_shared_noop(self):
        disable_profiling()
        assert create_profiler() is NOOP_PROFILER
        assert create_profiler(interval=0.5) is NOOP_PROFILER

    def test_enabled_create_profiler_is_live(self):
        enable_profiling()
        profiler = create_profiler(interval=0.25)
        assert isinstance(profiler, SamplingProfiler)
        assert profiler.interval == 0.25

    def test_noop_has_the_live_shape_and_costs_nothing(self):
        assert NOOP_PROFILER.sample_once() == 0
        assert NOOP_PROFILER.export_state(reset=True) == {}
        assert NOOP_PROFILER.collapsed() == ""
        assert NOOP_PROFILER.attribution_fraction() is None
        assert NOOP_PROFILER.stop() is None
        assert not NOOP_PROFILER.running
        assert NOOP_PROFILER.to_dict() == {"enabled": False}

    def test_profile_scope_is_inert_when_disabled(self):
        disable_profiling()
        profiler = SamplingProfiler()
        set_active_profiler(profiler)
        with profile_scope("vec"):
            assert profiler._scopes == {}

    def test_profile_scope_registers_when_enabled(self):
        enable_profiling()
        profiler = SamplingProfiler()
        set_active_profiler(profiler)
        ident = threading.get_ident()
        with profile_scope("vec"):
            assert profiler._scopes[ident] == "endpoint:vec"
        assert ident not in profiler._scopes


class TestLiveAttribution:
    @staticmethod
    def _profile_sharded_workload():
        enable_profiling()
        rng = np.random.default_rng(3)
        records = [row for row in rng.normal(size=(4000, 12))]
        runtime = Runtime()
        selector = ShardedSelector(
            records,
            lambda recs: BallIndexEuclideanSelector(recs),
            num_shards=4,
            runtime=runtime,
            backend="thread",
        )
        profiler = create_profiler(interval=0.001)
        try:
            profiler.start(runtime)
            with profile_scope("driver"):
                for query in records[:60]:
                    selector.cardinality(query, 2.5)
        finally:
            profiler.stop()
            runtime.shutdown()
        assert profiler.total_samples > 0
        fraction = profiler.attribution_fraction()
        assert fraction is not None and fraction >= 0.9, (
            f"only {fraction:.0%} of {profiler.total_samples} samples attributed:"
            f" {profiler.label_totals()}"
        )
        return selector, profiler.label_totals()

    def test_sharded_workload_is_90_percent_attributed(self, thread_fan_out):
        """Thread fan-out: pool workers attribute by thread name, the driver
        thread by its profile_scope — >=90% of samples must land rooted."""
        selector, totals = self._profile_sharded_workload()
        assert selector.stats()["last_fan_out"] == "thread"
        assert "pool:shards" in totals, totals
        assert "endpoint:driver" in totals

    def test_inline_shard_tasks_are_attributed_to_their_caller(self):
        """Inline fan-out (what shards this small get): the shard tasks run
        on the driver thread, so its profile_scope roots them — still >=90%."""
        selector, totals = self._profile_sharded_workload()
        assert selector.stats()["last_fan_out"] == "inline"
        assert "endpoint:driver" in totals
