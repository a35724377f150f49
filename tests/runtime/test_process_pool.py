"""Process-backend WorkerPool: same API, forked execution, no orphans.

The process backend must be indistinguishable from the thread backend at the
API surface — handles, map ordering, drain/shutdown, snapshot refusal — while
actually executing in forked children (verified by pid) and never leaving
worker processes behind.
"""

from __future__ import annotations

import gc
import os
import signal
import time

import pytest

from repro.runtime import (
    POOL_BACKENDS,
    Runtime,
    WorkerPool,
    fork_available,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)


def _square(value):
    return value * value


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _child_pid():
    return os.getpid()


def _raise_value_error(message):
    raise ValueError(message)


def _exit_hard():
    os._exit(13)


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class TestExecutesInChildren:
    def test_tasks_run_in_forked_processes(self):
        pool = WorkerPool("proc", num_workers=2, backend="process")
        try:
            pids = {pool.submit(_child_pid).result(timeout=10) for _ in range(8)}
            assert os.getpid() not in pids
            assert 1 <= len(pids) <= 2
        finally:
            pool.shutdown()

    def test_map_preserves_order(self):
        pool = WorkerPool("proc-map", num_workers=3, backend="process")
        try:
            assert pool.map(_square, range(20)) == [i * i for i in range(20)]
        finally:
            pool.shutdown()

    def test_stats_report_backend(self):
        pool = WorkerPool("proc-stats", num_workers=1, backend="process")
        try:
            stats = pool.stats()
            assert stats["backend"] == "process"
            assert stats["requested_backend"] == "process"
        finally:
            pool.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool("bad", num_workers=1, backend="gpu")
        assert POOL_BACKENDS == ("thread", "process")


class TestErrorPaths:
    def test_exception_propagates_across_the_pipe(self):
        pool = WorkerPool("proc-err", num_workers=1, backend="process")
        try:
            handle = pool.submit(_raise_value_error, "kaboom")
            with pytest.raises(ValueError, match="kaboom"):
                handle.result(timeout=10)
            assert pool.stats()["failed"] == 1
        finally:
            pool.shutdown()

    def test_unpicklable_task_raises_at_submit(self):
        pool = WorkerPool("proc-pickle", num_workers=1, backend="process")
        try:
            with pytest.raises(TypeError, match="pickl"):
                pool.submit(_square, _Unpicklable())
            with pytest.raises(TypeError, match="pickl"):
                pool.submit(lambda: 1)
            # The refusal happened before admission: nothing was queued.
            assert pool.stats()["submitted"] == 0
        finally:
            pool.shutdown()

    def test_child_death_mid_task_fails_that_task_only(self):
        pool = WorkerPool("proc-death", num_workers=1, backend="process")
        try:
            handle = pool.submit(_exit_hard)
            with pytest.raises(RuntimeError, match="died"):
                handle.result(timeout=10)
            # The dead child is respawned for the next task.
            assert pool.submit(_square, 6).result(timeout=10) == 36
        finally:
            pool.shutdown()


class TestDrainShutdownAndOrphans:
    def test_drain_waits_for_inflight_tasks(self):
        pool = WorkerPool("proc-drain", num_workers=2, backend="process")
        try:
            handles = [pool.submit(_sleep_then, 0.2, i) for i in range(4)]
            pool.drain(timeout=30)
            assert all(handle.done for handle in handles)
            assert pool.queue_depth == 0
        finally:
            pool.shutdown()

    def test_shutdown_reaps_children(self):
        pool = WorkerPool("proc-reap", num_workers=2, backend="process")
        pool.map(_square, range(4))
        children = pool.child_processes()
        assert children and all(child.is_alive() for child in children)
        pool.shutdown()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(c.is_alive() for c in children):
            time.sleep(0.05)
        assert not any(child.is_alive() for child in children)

    def test_runtime_del_leaves_no_orphans(self):
        # Worker threads keep a bare pool referenced, so the GC path that
        # must reap children is the owning Runtime's __del__.
        runtime = Runtime()
        pool = runtime.pool("proc-del", num_workers=2, backend="process")
        pool.map(_square, range(4))
        children = pool.child_processes()
        assert all(child.is_alive() for child in children)
        del runtime, pool
        gc.collect()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(c.is_alive() for c in children):
            time.sleep(0.05)
        assert not any(child.is_alive() for child in children)

    def test_runtime_shutdown_reaps_process_pools(self):
        runtime = Runtime()
        pool = runtime.pool("workers", num_workers=2, backend="process")
        pool.map(_square, range(4))
        children = pool.child_processes()
        runtime.shutdown()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(c.is_alive() for c in children):
            time.sleep(0.05)
        assert not any(child.is_alive() for child in children)


class TestSnapshotRefusal:
    def test_snapshot_refuses_inflight_process_tasks(self):
        runtime = Runtime()
        pool = runtime.pool("busy", num_workers=1, backend="process")
        handle = pool.submit(_sleep_then, 1.0, 42)
        time.sleep(0.05)
        with pytest.raises(RuntimeError, match="in flight"):
            runtime.__snapshot_state__()
        assert handle.result(timeout=10) == 42
        runtime.shutdown()

    def test_snapshot_ok_after_drain(self):
        runtime = Runtime()
        pool = runtime.pool("quiet", num_workers=1, backend="process")
        pool.submit(_square, 3).result(timeout=10)
        runtime.drain(timeout=10)
        state = runtime.__snapshot_state__()
        assert state["_pools"] == {}  # live pools never serialize
        runtime.shutdown()


class TestFallback:
    def test_backend_falls_back_without_fork(self, monkeypatch):
        import repro.runtime.pool as pool_mod

        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        pool = pool_mod.WorkerPool("nofork", num_workers=1, backend="process")
        try:
            assert pool.backend == "thread"
            assert pool.requested_backend == "process"
            assert pool.submit(_square, 5).result(timeout=10) == 25
        finally:
            pool.shutdown()
