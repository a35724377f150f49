"""The shared runtime: named worker pools behind one acquisition point.

A :class:`Runtime` owns every :class:`~repro.runtime.WorkerPool` a deployment
runs on.  Layers acquire pools by name (``runtime.pool("shards", ...)``) —
the first acquisition creates the pool with the requested configuration,
later acquisitions reuse it — so a sharded selector and the engine's
pipelined executor sharing one runtime share workers instead of each spawning
a private executor.

Runtimes are snapshot-aware: pools are live threads and never serialize.
``__snapshot_state__`` drops them (a save while tasks are in flight raises —
silently discarding queued work would strand callers); after restore the
runtime holds no pools and every pool is rebuilt lazily on its next
acquisition, preserving the shared-object identity between e.g. an engine and
its sharded selectors.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..obs.metrics import use_registry
from .pool import WorkerPool, metrics_sink


def usable_cores() -> int:
    """Cores this process may run on: its scheduler affinity where the
    platform reports one (a container or ``taskset`` shrinks it below the
    machine's count), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS / Windows have no affinity call
        return os.cpu_count() or 1


class Runtime:
    """Named :class:`WorkerPool` registry shared across subsystem layers."""

    def __init__(self, telemetry: Optional[Any] = None) -> None:
        #: A :class:`~repro.serving.ServingTelemetry` (or compatible) sink;
        #: every pool reports per-task counts/latency under ``pool:<name>``.
        self.telemetry = telemetry
        self._pools: Dict[str, WorkerPool] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Pool acquisition
    # ------------------------------------------------------------------ #
    def pool(
        self,
        name: str,
        num_workers: int = 4,
        backend: str = "thread",
    ) -> WorkerPool:
        """The pool registered under ``name``, created on first acquisition.

        The backend applies only when this call creates the pool (the first
        acquisition wins; components that need true
        multicore acquire a distinctly-named ``backend="process"`` pool, e.g.
        ``"shards-proc"``, so they never silently land on a thread pool an
        earlier layer created), but the worker count is a *floor*: an
        existing pool grows to ``num_workers`` if it is narrower, so a wide
        fan-out joining a shared pool never silently runs at a narrower
        width.
        """
        with self._lock:
            existing = self._pools.get(name)
            if existing is not None:
                existing.ensure_workers(num_workers)
                return existing
            created = WorkerPool(
                name,
                num_workers=num_workers,
                telemetry=self.telemetry,
                backend=backend,
            )
            self._pools[name] = created
            return created

    def run_inline(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` on the calling thread, under the metrics sink a pool of
        this runtime would push around it.

        The one inline counterpart of :meth:`WorkerPool.submit` — a site that
        decides a batch is too small to dispatch runs it here, so ambient
        instrumentation inside the task (shard-op counters, service
        histograms) lands in the same registry wherever the task ran.  It is
        not a pool task: nothing is queued, and no ``pool:<name>`` count moves.
        """
        with use_registry(metrics_sink(self.telemetry)):
            return fn(*args, **kwargs)

    def pool_names(self) -> List[str]:
        with self._lock:
            return sorted(self._pools)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._pools

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> None:
        """Wait until every pool's queue is empty and no task is running.

        ``timeout`` is ONE deadline for the whole runtime, not per pool.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            pools = list(self._pools.values())
        for pool in pools:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError("runtime did not drain within the timeout")
            pool.drain(remaining)

    def shutdown(self, wait: bool = True) -> None:
        """Gracefully stop every pool (queued tasks finish first) and forget
        them; the runtime stays usable — pools recreate lazily on demand."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools = {}
        for pool in pools:
            pool.shutdown(wait=wait)

    def __del__(self) -> None:
        # Worker threads park on condition variables forever otherwise: an
        # engine that goes out of scope must not pin its pools' threads for
        # the process lifetime.  Threads reference the
        # POOL, not the runtime, so the runtime is collectable while workers
        # run — signalling shutdown here lets them exit and frees the pools.
        try:
            self.shutdown(wait=False)
        except Exception:  # repro: ignore[RPR005] - interpreter teardown: metrics/telemetry may already be gone
            pass  # pragma: no cover - interpreter-teardown safety

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            pools = dict(self._pools)
        return {name: pool.stats() for name, pool in sorted(pools.items())}

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store)
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> Dict[str, Any]:
        """Drop live pools and the lock; refuse to save in-flight work."""
        busy = {
            name: pool.queue_depth + pool._active
            for name, pool in self._pools.items()
            if pool.queue_depth or pool._active
        }
        if busy:
            raise RuntimeError(
                f"cannot snapshot a Runtime with tasks in flight ({busy}); "
                "drain() the runtime first"
            )
        state = dict(self.__dict__)
        state["_pools"] = {}
        state.pop("_lock", None)
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._pools = {}
        self._lock = threading.Lock()


_default_runtime: Optional[Runtime] = None
_default_runtime_lock = threading.Lock()


def default_runtime() -> Runtime:
    """The process-wide shared runtime, created on first use.

    Components constructed without an explicit runtime (a standalone
    :class:`~repro.sharding.ShardedSelector`, for example) run here, so
    independent components in one process share workers by default.
    """
    global _default_runtime
    with _default_runtime_lock:
        if _default_runtime is None:
            _default_runtime = Runtime()
        return _default_runtime
