"""WorkerPool semantics: lazy start, handles, the unbounded queue, drain/shutdown."""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import WorkerPool
from repro.serving import ServingTelemetry


class TestLifecycleAndHandles:
    def test_pool_starts_lazily(self):
        pool = WorkerPool("lazy", num_workers=2)
        assert not pool.started
        handle = pool.submit(lambda: 41 + 1)
        assert pool.started
        assert handle.result(timeout=5) == 42
        pool.shutdown()

    def test_result_and_done(self):
        pool = WorkerPool("basic", num_workers=1)
        gate = threading.Event()
        handle = pool.submit(gate.wait, 5)
        assert not handle.done
        gate.set()
        assert handle.result(timeout=5) is True
        assert handle.done
        pool.shutdown()

    def test_exception_propagates_to_result(self):
        pool = WorkerPool("boom", num_workers=1)

        def explode():
            raise ValueError("kaboom")

        handle = pool.submit(explode)
        with pytest.raises(ValueError, match="kaboom"):
            handle.result(timeout=5)
        assert handle.exception(timeout=5) is not None
        assert pool.stats()["failed"] == 1
        pool.shutdown()

    def test_map_preserves_submission_order(self):
        pool = WorkerPool("map", num_workers=4)
        assert pool.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]
        pool.shutdown()

    def test_map_reraises_first_error_after_all_tasks_finish(self):
        pool = WorkerPool("map-err", num_workers=2)
        ran = []

        def task(i):
            if i == 1:
                raise RuntimeError("task 1 failed")
            ran.append(i)
            return i

        with pytest.raises(RuntimeError, match="task 1 failed"):
            pool.map(task, range(6))
        # Every non-failing task still ran — nothing was abandoned mid-flight.
        assert sorted(ran) == [0, 2, 3, 4, 5]
        pool.shutdown()

    def test_result_timeout(self):
        pool = WorkerPool("slow", num_workers=1)
        gate = threading.Event()
        handle = pool.submit(gate.wait, 5)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        gate.set()
        assert handle.result(timeout=5) is True
        pool.shutdown()

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool("closed", num_workers=1)
        pool.submit(lambda: 1).result(timeout=5)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(lambda: 2)

    def test_shutdown_finishes_queued_tasks(self):
        pool = WorkerPool("graceful", num_workers=1)
        gate = threading.Event()
        first = pool.submit(gate.wait, 5)
        queued = [pool.submit(lambda i=i: i) for i in range(5)]
        gate.set()
        pool.shutdown(wait=True)  # graceful: the queue drains before exit
        assert first.result(timeout=5) is True
        assert [handle.result(timeout=5) for handle in queued] == list(range(5))
        assert pool.stats()["completed"] == 6

    def test_drain_waits_for_in_flight_work(self):
        pool = WorkerPool("drain", num_workers=2)
        done = []
        pool.map(lambda i: done.append(i), range(4))
        for _ in range(8):
            pool.submit(lambda: done.append(time.perf_counter()))
        pool.drain(timeout=5)
        assert len(done) == 12
        assert pool.stats()["queue_depth"] == 0
        assert pool.stats()["active"] == 0
        pool.shutdown()


class TestBackpressure:
    """There is none: the queue is unbounded and ``submit`` never waits."""

    def test_unbounded_pool_never_applies_backpressure(self):
        pool = WorkerPool("unbounded", num_workers=1)
        gate = threading.Event()
        running = pool.submit(gate.wait, 10)
        while pool.stats()["active"] == 0:  # wait until the worker holds it
            time.sleep(0.001)
        handles = [pool.submit(lambda i=i: i) for i in range(100)]
        assert pool.queue_depth == 100
        gate.set()
        assert [handle.result(timeout=5) for handle in handles] == list(range(100))
        assert running.result(timeout=5) is True
        stats = pool.stats()
        assert stats["max_queue_seen"] == 100
        assert stats["submitted"] == stats["completed"] == 101
        pool.shutdown()


class TestTelemetryExport:
    def test_pool_tasks_reported_under_pool_endpoint(self):
        telemetry = ServingTelemetry()
        pool = WorkerPool("fanout", num_workers=2, telemetry=telemetry)
        pool.map(lambda i: i, range(10))
        pool.drain(timeout=5)
        snapshot = telemetry.snapshot()
        assert snapshot["pool:fanout"]["requests"] == 10
        assert snapshot["pool:fanout"]["latency_seconds"] >= 0.0
        # Pool tasks are internal fan-out, not client traffic: NOT in totals.
        assert snapshot["total"]["requests"] == 0
        pool.shutdown()
