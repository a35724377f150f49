"""Runtime layer: one concurrent execution substrate for the whole stack.

Before this package existed the library had three incompatible ad-hoc
concurrency mechanisms (serving's synchronous deferred micro-batching, and
private thread pools inside the sharded selector and the replica router).
They all run here now:

* :class:`WorkerPool` — named, sized, lazily-started pools over one FIFO
  queue, Future-style :class:`TaskHandle`\\ s, graceful
  drain/shutdown, and per-pool telemetry through
  :class:`~repro.serving.ServingTelemetry`.  Two backends share that one
  API: ``backend="thread"`` (the default) and ``backend="process"`` — forked
  worker processes for true multicore execution, fed picklable tasks whose
  dataset arrays arrive zero-copy via :class:`~repro.store.SharedDataPlane`
  mmaps rather than per-task pickling;
* :class:`Runtime` — the named-pool registry layers share (engine, sharding,
  replicas on one runtime = one set of workers), snapshot-aware: pools are
  dropped at save and rebuilt lazily after restore.  A pool is used only when
  it pays: :meth:`Runtime.run_inline` runs a batch on the caller's thread
  under the same metrics sink, and :func:`usable_cores` is the core count a
  dispatch decision may rely on;
* :class:`BatchCoalescer` — thread-safe merging of requests from many threads
  into one micro-batch per endpoint, the concurrent core of
  :class:`~repro.serving.EstimationService`'s deferred path.
"""

from .coalescer import BatchCoalescer
from .pool import (
    POOL_BACKENDS,
    TaskHandle,
    WorkerPool,
    fork_available,
)
from .runtime import Runtime, default_runtime, usable_cores

__all__ = [
    "BatchCoalescer",
    "POOL_BACKENDS",
    "Runtime",
    "TaskHandle",
    "WorkerPool",
    "default_runtime",
    "fork_available",
    "usable_cores",
]
