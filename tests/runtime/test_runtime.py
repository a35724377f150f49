"""Runtime registry semantics: named pools, lifecycle, snapshot hooks."""

from __future__ import annotations

import pytest

from repro.obs import current_registry, default_registry
from repro.runtime import Runtime, WorkerPool, default_runtime, usable_cores
from repro.serving import ServingTelemetry
from repro.store import load_component, save_component


class TestPoolRegistry:
    def test_same_name_returns_the_same_pool(self):
        runtime = Runtime()
        first = runtime.pool("workers", num_workers=3)
        again = runtime.pool("workers", num_workers=2, backend="process")
        assert again is first
        assert first.num_workers == 3  # worker floor: never shrinks
        assert first.backend == "thread"  # backend: first wins
        assert runtime.pool_names() == ["workers"]
        assert "workers" in runtime

    def test_reacquiring_with_wider_fanout_grows_the_pool(self):
        """A wide fan-out joining a shared pool must not silently run at the
        narrower width the first acquirer picked."""
        runtime = Runtime()
        narrow = runtime.pool("shards", num_workers=2)
        narrow.map(lambda i: i, range(4))  # pool is live with 2 workers
        wide = runtime.pool("shards", num_workers=8)
        assert wide is narrow
        assert narrow.num_workers == 8
        # All 8 workers really exist: 8 tasks can hold the pool at once.
        import threading

        barrier = threading.Barrier(8)
        handles = [narrow.submit(barrier.wait) for _ in range(8)]
        for handle in handles:
            handle.result(timeout=5)  # deadlocks unless 8 workers run
        runtime.shutdown()

    def test_distinct_names_get_distinct_pools(self):
        runtime = Runtime()
        shards = runtime.pool("shards", num_workers=2)
        replicas = runtime.pool("replicas", num_workers=2)
        assert shards is not replicas
        assert runtime.pool_names() == ["replicas", "shards"]

    def test_pools_inherit_the_runtime_telemetry(self):
        telemetry = ServingTelemetry()
        runtime = Runtime(telemetry)
        pool = runtime.pool("traced", num_workers=1)
        pool.map(lambda i: i, range(4))
        assert telemetry.snapshot()["pool:traced"]["requests"] == 4

    def test_stats_aggregates_every_pool(self):
        runtime = Runtime()
        runtime.pool("a", num_workers=1).map(lambda i: i, range(3))
        runtime.pool("b", num_workers=2)
        stats = runtime.stats()
        assert stats["a"]["completed"] == 3
        assert stats["b"]["num_workers"] == 2
        assert stats["b"]["started"] is False  # never submitted to: still lazy

    def test_shutdown_forgets_pools_and_stays_usable(self):
        runtime = Runtime()
        old = runtime.pool("workers", num_workers=1)
        old.map(lambda i: i, range(2))
        runtime.shutdown(wait=True)
        assert runtime.pool_names() == []
        fresh = runtime.pool("workers", num_workers=1)
        assert fresh is not old
        assert fresh.map(lambda i: i + 1, range(2)) == [1, 2]
        runtime.shutdown()

    def test_default_runtime_is_a_process_singleton(self):
        assert default_runtime() is default_runtime()
        assert isinstance(default_runtime(), Runtime)

    def test_drain_timeout_is_one_deadline_for_the_whole_runtime(self):
        import threading
        import time

        runtime = Runtime()
        gates = [threading.Event() for _ in range(3)]
        for index, gate in enumerate(gates):
            runtime.pool(f"busy-{index}", num_workers=1).submit(gate.wait, 30)
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                runtime.drain(timeout=0.2)
            # Three busy pools share ONE 0.2s budget — not 0.2s each.
            assert time.monotonic() - start < 1.0
        finally:
            for gate in gates:
                gate.set()
            runtime.shutdown()

    def test_dropped_runtime_reclaims_its_worker_threads(self):
        import gc
        import threading

        before = {t.name for t in threading.enumerate()}
        runtime = Runtime()
        runtime.pool("ephemeral-workers", num_workers=3).map(lambda i: i, range(6))
        spawned = {
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-ephemeral-workers")
        }
        assert len(spawned) == 3
        del runtime
        gc.collect()
        deadline = threading.Event()
        for _ in range(100):  # workers exit asynchronously after shutdown
            alive = {
                t.name for t in threading.enumerate()
                if t.name.startswith("repro-ephemeral-workers")
            }
            if not alive:
                break
            deadline.wait(0.05)
        assert not alive, "dropped Runtime leaked its worker threads"
        assert before <= {t.name for t in threading.enumerate()} | spawned


class TestRunInline:
    def test_runs_on_the_caller_under_the_sink_a_pool_would_push(self):
        import threading

        telemetry = ServingTelemetry()
        runtime = Runtime(telemetry)
        pool_side = runtime.pool("probe", num_workers=1).submit(current_registry).result()

        def task(a, b=0):
            return threading.get_ident(), current_registry(), a + b

        ident, inline_side, value = runtime.run_inline(task, 2, b=3)
        assert ident == threading.get_ident() and value == 5
        assert inline_side is pool_side is telemetry.metrics
        # The caller's own ambient registry is back afterwards, and an inline
        # task is not a pool task: no pool, no pool:<name> count.
        assert current_registry() is default_registry()
        assert runtime.pool_names() == ["probe"]
        assert telemetry.snapshot()["pool:probe"]["requests"] == 1
        runtime.shutdown()

    def test_without_telemetry_the_sink_is_the_default_registry(self):
        assert Runtime().run_inline(current_registry) is default_registry()

    def test_errors_propagate_and_the_registry_is_restored(self):
        runtime = Runtime(ServingTelemetry())
        with pytest.raises(ZeroDivisionError):
            runtime.run_inline(lambda: 1 / 0)
        assert current_registry() is default_registry()
        assert runtime.pool_names() == []

    def test_usable_cores_is_the_affinity_when_the_platform_has_one(self, monkeypatch):
        import os

        assert usable_cores() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert usable_cores() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1


class TestSnapshotHooks:
    def test_round_trip_drops_pools_and_rebuilds_lazily(self, tmp_path):
        runtime = Runtime()
        runtime.pool("workers", num_workers=2).map(lambda i: i * 2, range(5))
        runtime.drain(timeout=5)
        save_component(runtime, tmp_path / "rt")
        restored = load_component(tmp_path / "rt")
        assert isinstance(restored, Runtime)
        assert restored.pool_names() == []  # pools never serialize
        # ...and the restored runtime is immediately usable again.
        assert restored.pool("workers", num_workers=2).map(
            lambda i: i * 2, range(5)
        ) == [0, 2, 4, 6, 8]

    def test_snapshot_refuses_in_flight_tasks(self, tmp_path):
        import threading

        runtime = Runtime()
        gate = threading.Event()
        handle = runtime.pool("busy", num_workers=1).submit(gate.wait, 10)
        try:
            with pytest.raises(RuntimeError, match="tasks in flight"):
                save_component(runtime, tmp_path / "busy")
        finally:
            gate.set()
            handle.result(timeout=5)
        runtime.drain(timeout=5)
        save_component(runtime, tmp_path / "busy")  # idle: saves cleanly

    def test_runtime_telemetry_survives_the_round_trip(self, tmp_path):
        telemetry = ServingTelemetry()
        runtime = Runtime(telemetry)
        runtime.pool("traced", num_workers=1).map(lambda i: i, range(3))
        runtime.drain(timeout=5)
        save_component(runtime, tmp_path / "rt")
        restored = load_component(tmp_path / "rt")
        # Counters persisted; the lock was rebuilt (recording still works).
        assert restored.telemetry.snapshot()["pool:traced"]["requests"] == 3
        restored.telemetry.record_pool_task("traced", 0.0)
        assert restored.telemetry.snapshot()["pool:traced"]["requests"] == 4


class TestWorkerPoolValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            WorkerPool("bad", num_workers=0)
