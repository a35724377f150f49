"""Worker pools: the one thread-parallel execution primitive of the library.

Every concurrent site in the stack — a rebalance's driver and its builds —
runs the tasks it dispatches on a
:class:`WorkerPool` acquired from a shared :class:`~repro.runtime.Runtime`
instead of constructing a private executor.  A pool is *named* (so
independent layers sharing one runtime reuse the same workers instead of
oversubscribing the machine), *sized* at creation, and *lazily started* — no
thread exists until the first submission, which is what lets snapshots simply
drop pools at save and rebuild them on demand after restore.

Submission appends to an unbounded FIFO queue: ``submit`` never waits and
never refuses (no site in the library ever bounded one; a caller waits on the
handles it submitted).  ``stats()["max_queue_seen"]`` records how deep the
queue ever got.

Handles are ``Future``-style: ``result()`` blocks for and returns the task's
value (re-raising its exception), ``done`` is a non-blocking probe.
Per-pool telemetry (tasks completed, per-task wall-clock) is exported through
the same :class:`~repro.serving.ServingTelemetry` machinery the serving layer
uses, under the endpoint name ``pool:<name>`` — pool load is inspectable
exactly like endpoint traffic.

Tasks run on the worker threads, with no serialization.  Threads take turns
on one interpreter lock, so a pool gains only the time its tasks spend
outside it (waiting on a file, or inside a numpy kernel long enough to release
it).  Measured on 2 cores with 4 shard probes per fan-out, below 1 ms of CPU
per task a pool never beat a plain loop
(``docs/perf/pr-18/fan_out_break_even.json``), and every workload's shard
probes sit far below that: the shard fan-out is a loop on the caller
(:meth:`~repro.runtime.Runtime.run_inline`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import default_registry, use_registry
from ..obs.trace import Span, activate, capture_context, span


def metrics_sink(telemetry: Optional[Any]) -> Any:
    """Where a runtime's ambient metrics land: the telemetry's registry when
    it has one, otherwise the process default registry."""
    registry = getattr(telemetry, "metrics", None)
    return registry if registry is not None else default_registry()


class TaskHandle:
    """Future-style handle for one submitted task.

    Resolution happens exactly once, by the worker that ran the task.
    ``result()`` blocks until then; a task that raised re-raises its exception
    on the waiter's thread.
    """

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """Whether the task finished (successfully or with an error)."""
        return self._event.is_set()

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("task did not complete within the timeout")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The task's error (``None`` on success), waiting like :meth:`result`."""
        if not self._event.wait(timeout):
            raise TimeoutError("task did not complete within the timeout")
        return self._error


class WorkerPool:
    """A named, sized, lazily-started pool over one unbounded FIFO queue."""

    def __init__(
        self,
        name: str,
        num_workers: int,
        telemetry: Optional[Any] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.name = name
        self.num_workers = int(num_workers)
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        #: Queue rows: (handle, fn, args, kwargs, context) — ``context`` is
        #: the submitter's active trace span (``None`` outside a trace),
        #: re-activated around the task on the worker so per-task spans
        #: attach to the submitting query's tree.
        self._tasks: Deque[
            Tuple[TaskHandle, Callable, tuple, dict, Optional[Span]]
        ] = deque()
        self._threads: List[threading.Thread] = []
        self._active = 0
        self._shutdown = False
        # Lifetime counters (reported via stats(); O(1) memory).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.max_queue_seen = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        """Whether any worker thread exists yet (pools start lazily)."""
        return bool(self._threads)

    def _ensure_started_locked(self) -> None:
        if self._threads:
            return
        self._spawn_locked(self.num_workers)

    def _spawn_locked(self, count: int) -> None:
        for _ in range(count):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-{self.name}-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def ensure_workers(self, num_workers: int) -> None:
        """Grow the pool to at least ``num_workers`` (never shrinks).

        Lets later acquirers with more tasks widen a shared pool — e.g. a
        rebalance building 4 targets on a runtime whose build pool was first
        created for 2 — instead of silently running on the narrower width the
        first acquirer picked.
        """
        with self._lock:
            if num_workers <= self.num_workers or self._shutdown:
                return
            if self._threads:  # already running: add the missing workers now
                self._spawn_locked(num_workers - self.num_workers)
            self.num_workers = int(num_workers)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable, *args: Any, **kwargs: Any) -> TaskHandle:
        """Queue one task.

        The submitter's active trace span (if any) is captured alongside the
        task; the worker re-activates it so spans recorded during the task
        attach to the submitting query's tree.
        """
        context = capture_context()
        handle = TaskHandle()
        with self._lock:
            if self._shutdown:
                raise RuntimeError(f"pool {self.name!r} is shut down")
            self._tasks.append((handle, fn, args, kwargs, context))
            self.submitted += 1
            self.max_queue_seen = max(self.max_queue_seen, len(self._tasks))
            self._ensure_started_locked()
            self._not_empty.notify()
        return handle

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Submit ``fn(item)`` per item and gather results in submission order.

        The first failing task's exception re-raises on the caller's thread —
        after every handle resolved, so no task is abandoned mid-flight.
        """
        handles = [self.submit(fn, item) for item in items]
        errors = [handle.exception() for handle in handles]
        for error in errors:
            if error is not None:
                raise error
        return [handle.result() for handle in handles]

    # ------------------------------------------------------------------ #
    # Drain / shutdown
    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until the queue is empty and no task is executing."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._tasks or self._active:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"pool {self.name!r} did not drain within the timeout"
                    )
                self._idle.wait(remaining)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; workers finish the queued tasks, then exit."""
        with self._lock:
            self._shutdown = True
            self._not_empty.notify_all()
            threads = list(self._threads)
        if wait:
            for thread in threads:
                thread.join()

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    def _run_task(
        self, fn: Callable, args: tuple, kwargs: dict, sink: Any
    ) -> Tuple[Any, Optional[BaseException]]:
        """Execute one task, returning ``(value, error)``.

        The task runs with ``sink`` pushed as the current metrics registry,
        so ambient instrumentation inside it (shard-op counters, service
        histograms) lands in the runtime's registry.
        """
        try:
            with use_registry(sink):
                value = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — delivered via the handle
            return None, exc
        return value, None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._tasks and not self._shutdown:
                    self._not_empty.wait()
                if not self._tasks:
                    return  # shutdown requested and the queue fully drained
                handle, fn, args, kwargs, context = self._tasks.popleft()
                self._active += 1
            start = time.perf_counter()
            sink = metrics_sink(self.telemetry)
            if context is not None:
                # Re-activate the submitter's span on this thread so the
                # task's spans join the submitting query's tree.
                with activate(context):
                    with span("pool.task", pool=self.name) as task_span:
                        value, error = self._run_task(fn, args, kwargs, sink)
                        if error is not None:
                            task_span.set(error=repr(error))
            else:
                value, error = self._run_task(fn, args, kwargs, sink)
            elapsed = time.perf_counter() - start
            # Account the task fully (telemetry, then counters) BEFORE
            # resolving the handle: once result() or drain() returns, the
            # pool and its telemetry must already show the task as finished —
            # callers snapshot immediately after collecting results.
            if self.telemetry is not None:
                self.telemetry.record_pool_task(self.name, elapsed)
            with self._lock:
                self._active -= 1
                if error is not None:
                    self.failed += 1
                else:
                    self.completed += 1
                if not self._tasks and not self._active:
                    self._idle.notify_all()
            if error is not None:
                handle._fail(error)
            else:
                handle._resolve(value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        return len(self._tasks)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "num_workers": self.num_workers,
                "started": bool(self._threads),
                "queue_depth": len(self._tasks),
                "active": self._active,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "max_queue_seen": self.max_queue_seen,
            }
