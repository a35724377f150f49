"""Worker pools: the one thread-parallel execution primitive of the library.

Every concurrent site in the stack — sharded fan-out, the engine's pipelined
``execute_many``, rebalance builds — runs the tasks it dispatches on a
:class:`WorkerPool` acquired from a shared :class:`~repro.runtime.Runtime`
instead of constructing a private executor.  A pool is *named* (so
independent layers sharing one runtime reuse the same workers instead of
oversubscribing the machine), *sized* at creation, and *lazily started* — no
thread exists until the first submission, which is what lets snapshots simply
drop pools at save and rebuild them on demand after restore.

Submission appends to an unbounded FIFO queue: ``submit`` never waits and
never refuses (no site in the library ever bounded one; a fan-out waits on the
handles it submitted).  ``stats()["max_queue_seen"]`` records how deep the
queue ever got.

Handles are ``Future``-style: ``result()`` blocks for and returns the task's
value (re-raising its exception), ``done`` is a non-blocking probe.
Per-pool telemetry (tasks completed, per-task wall-clock) is exported through
the same :class:`~repro.serving.ServingTelemetry` machinery the serving layer
uses, under the endpoint name ``pool:<name>`` — pool load is inspectable
exactly like endpoint traffic.

Two execution backends share ALL of the above (same queue, same handles,
same telemetry, same drain/shutdown):

* ``backend="thread"`` (default) — tasks run on the worker threads, zero
  serialization.  Threads take turns on one interpreter lock, so a fan-out
  gains only the time its tasks spend outside it (waiting on a child process
  or a file, or inside a numpy kernel long enough to release it).  Measured
  on 2 cores with 4 shard probes per fan-out: below 1 ms of CPU per task the
  pool never beat a plain loop, from 3 ms it never lost to one (by up to
  ~1.5x), and in between the two trade places (table at
  ``repro.sharding.selector.THREAD_DISPATCH_FLOOR_SECONDS``).  Foreground
  callers therefore ask first and run small batches on their own thread
  (:meth:`~repro.runtime.Runtime.run_inline`).
* ``backend="process"`` — each worker thread is paired 1:1 with a forked
  daemon child process; the thread ships the pre-pickled task down a pipe
  and blocks (GIL released) on the reply while the child executes on its own
  core.  True multicore for Python-bound work.  Tasks must pickle —
  ``submit`` refuses unpicklable closures loudly at submission time — and
  dataset arrays must NOT ride in task arguments: publish them once via
  :class:`~repro.store.SharedDataPlane` and attach by mmap worker-side.
  On platforms without ``fork`` the pool silently runs on the thread
  backend (``requested_backend`` records the ask, ``backend`` the truth).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import default_registry, use_registry
from ..obs.trace import Span, activate, capture_context, span
from .process import ERROR, OK, SHUTDOWN_SENTINEL, run_child_loop

#: Execution backends a pool can run its tasks on.
POOL_BACKENDS = ("thread", "process")


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def metrics_sink(telemetry: Optional[Any]) -> Any:
    """Where a runtime's ambient metrics land: the telemetry's registry when
    it has one, otherwise the process default registry."""
    registry = getattr(telemetry, "metrics", None)
    return registry if registry is not None else default_registry()


class _ChildWorker:
    """One parent-thread's dedicated child process + pipe (process backend)."""

    __slots__ = ("process", "connection")

    def __init__(self, pool_name: str, index: int) -> None:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=run_child_loop,
            args=(child_conn,),
            name=f"repro-{pool_name}-proc-{index}",
            daemon=True,  # the OS must never hold an orphan past the parent
        )
        self.process.start()
        child_conn.close()  # the child holds its own copy
        self.connection = parent_conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful sentinel + join; terminate if the child ignores both."""
        try:
            self.connection.send_bytes(SHUTDOWN_SENTINEL)
        except (OSError, ValueError):  # repro: ignore[RPR005] - child already dead/pipe closed; join+terminate below still run
            pass
        try:
            self.connection.close()
        except OSError:  # repro: ignore[RPR005] - double-close on an already-broken pipe; nothing to observe
            pass  # pragma: no cover
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - ignores the sentinel
            self.process.terminate()
            self.process.join(timeout)


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
        backend: str = "thread",
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if backend not in POOL_BACKENDS:
            raise ValueError(
                f"unknown pool backend {backend!r}; choose from {POOL_BACKENDS}"
            )
        #: What the caller asked for; ``backend`` records what actually runs
        #: (thread fallback on platforms without fork).
        self.requested_backend = backend
        if backend == "process" and not fork_available():
            backend = "thread"
        self.backend = backend
        self.name = name
        self.num_workers = int(num_workers)
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        #: Queue rows: (handle, fn, args, kwargs, payload, context) —
        #: ``payload`` is the pre-pickled task for the process backend
        #: (``None`` for threads); ``context`` is the submitter's active trace
        #: span (``None`` outside a trace), re-activated around the task on
        #: the worker so per-task spans attach to the submitting query's tree.
        self._tasks: Deque[
            Tuple[TaskHandle, Optional[Callable], tuple, dict, Optional[bytes], Optional[Span]]
        ] = deque()
        self._threads: List[threading.Thread] = []
        self._children: List[Optional[_ChildWorker]] = []
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
            index = len(self._threads)
            if self.backend == "process":
                # Fork the child BEFORE its shepherd thread exists, so the
                # child never inherits a mid-operation worker thread's state.
                self._children.append(_ChildWorker(self.name, index))
            else:
                self._children.append(None)
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-{self.name}-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def ensure_workers(self, num_workers: int) -> None:
        """Grow the pool to at least ``num_workers`` (never shrinks).

        Lets later acquirers with bigger fan-out widen a shared pool — e.g.
        an 8-shard selector joining a runtime whose ``shards`` pool was first
        created by a 2-shard one — instead of silently running on the
        narrower width the first acquirer picked.
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

        On the process backend the task is pickled HERE, outside the pool
        lock and before it is queued — an unpicklable closure fails the caller
        immediately and loudly instead of poisoning a worker later.

        The submitter's active trace span (if any) is captured alongside the
        task; the worker re-activates it so spans recorded during the task
        attach to the submitting query's tree.  On the process backend only
        the span's ``(trace_id, span_id)`` rides in the envelope — the child
        builds its own subtree against those ids and ships it back.
        """
        context = capture_context()
        payload: Optional[bytes] = None
        if self.backend == "process":
            meta = None if context is None else (context.trace_id, context.span_id)
            try:
                payload = pickle.dumps(
                    (fn, args, kwargs, meta), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception as error:
                raise TypeError(
                    f"pool {self.name!r} runs the process backend: tasks must "
                    "pickle (module-level function + plain-data arguments). "
                    "Publish dataset arrays through a SharedDataPlane and pass "
                    "the handle instead of closing over live objects."
                ) from error
        handle = TaskHandle()
        with self._lock:
            if self._shutdown:
                raise RuntimeError(f"pool {self.name!r} is shut down")
            self._tasks.append((handle, fn, args, kwargs, payload, context))
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
    def _run_in_child(
        self, index: int, payload: bytes
    ) -> Tuple[Any, Optional[BaseException], Optional[Dict[str, Any]]]:
        """Ship one pickled task to this thread's child and await the reply.

        A dead child (killed, segfaulted) fails the task loudly and is
        replaced before the next task — one poisoned task never wedges the
        pool.  The blocking ``recv`` releases the GIL: this is where the
        parent thread idles while the child's core does the work.

        Returns ``(value, error, extras)``; ``extras`` is the child's
        observability sidecar (metrics state + traced span subtree, see
        :mod:`repro.runtime.process`).
        """
        child = self._children[index]
        if child is None or not child.alive:
            child = self._children[index] = _ChildWorker(self.name, index)
        try:
            child.connection.send_bytes(payload)
            reply = child.connection.recv()
        except (EOFError, OSError) as exc:
            # Discard the broken child NOW rather than trusting is_alive()
            # on the next task — exit status can lag the pipe EOF, and a
            # stale True there would feed one more task to a corpse.
            child.stop(timeout=1.0)
            self._children[index] = None
            return None, RuntimeError(
                f"process worker {index} of pool {self.name!r} died mid-task "
                f"({exc!r}); the task is lost and the worker will be replaced"
            ), None
        code, obj, extras = reply
        if code == OK:
            return obj, None, extras
        if code == ERROR:
            return None, obj, None
        return None, RuntimeError(
            f"process worker task failed and its error could not be "
            f"pickled back: {obj}"
        ), None

    def _worker_loop(self, index: int) -> None:
        try:
            self._worker_loop_inner(index)
        finally:
            # The shepherd thread owns its child's lifetime: reap it on the
            # way out (shutdown, or interpreter teardown of a daemon thread)
            # so no worker process outlives the pool.
            if index < len(self._children):
                child = self._children[index]
                if child is not None:
                    child.stop()

    def _run_task(
        self,
        index: int,
        fn: Optional[Callable],
        args: tuple,
        kwargs: dict,
        payload: Optional[bytes],
        sink: Any,
    ) -> Tuple[Any, Optional[BaseException], Optional[Dict[str, Any]]]:
        """Execute one task on the right backend, returning (value, error, extras).

        Thread-backend tasks run with ``sink`` pushed as the current metrics
        registry, so ambient instrumentation inside the task (shard-op
        counters, service histograms) lands in the same registry whichever
        backend executes — the process backend reaches the sink via the
        extras merge instead.
        """
        if payload is not None:
            return self._run_in_child(index, payload)
        try:
            with use_registry(sink):
                value = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — delivered via the handle
            return None, exc, None
        return value, None, None

    def _absorb_extras(
        self, extras: Dict[str, Any], task_span: Optional[Any], sink: Any
    ) -> None:
        """Fold a child's observability sidecar into the parent's world:
        merge its metrics into the sink, adopt its span subtree under the
        task span (dropped when the task was untraced)."""
        state = extras.get("metrics")
        if state:
            try:
                sink.merge_state(state)
            except Exception:
                # A malformed or bucket-mismatched state must not kill the
                # worker thread; count the loss where it can be seen.
                sink.counter(
                    "repro_metrics_merge_failures_total",
                    description="child metric states the parent could not merge",
                ).inc()
        child_span = extras.get("span")
        if child_span is not None and task_span is not None:
            task_span.adopt(child_span)

    def _worker_loop_inner(self, index: int) -> None:
        while True:
            with self._lock:
                while not self._tasks and not self._shutdown:
                    self._not_empty.wait()
                if not self._tasks:
                    return  # shutdown requested and the queue fully drained
                handle, fn, args, kwargs, payload, context = self._tasks.popleft()
                self._active += 1
            start = time.perf_counter()
            sink = metrics_sink(self.telemetry)
            task_span: Optional[Any] = None
            if context is not None:
                # Re-activate the submitter's span on this thread so the
                # task's spans join the submitting query's tree.
                with activate(context):
                    with span(
                        "pool.task", pool=self.name, backend=self.backend
                    ) as task_span:
                        value, error, extras = self._run_task(
                            index, fn, args, kwargs, payload, sink
                        )
                        if error is not None:
                            task_span.set(error=repr(error))
            else:
                value, error, extras = self._run_task(
                    index, fn, args, kwargs, payload, sink
                )
            elapsed = time.perf_counter() - start
            # Absorb child-side observability BEFORE resolving the handle,
            # for the same reason telemetry is recorded first: the instant
            # result() returns, the merged metrics and adopted spans must
            # already be visible.
            if extras:
                self._absorb_extras(extras, task_span, sink)
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

    def child_processes(self) -> List[Any]:
        """Live child :class:`multiprocessing.Process` objects (process backend).

        Empty on the thread backend; used by orphan-detection tests and
        operational tooling — never needed for normal task submission.
        """
        with self._lock:
            return [
                child.process
                for child in self._children
                if child is not None and child.alive
            ]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "backend": self.backend,
                "requested_backend": self.requested_backend,
                "num_workers": self.num_workers,
                "started": bool(self._threads),
                "queue_depth": len(self._tasks),
                "active": self._active,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "max_queue_seen": self.max_queue_seen,
            }
