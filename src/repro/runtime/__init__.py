"""Runtime layer: one concurrent execution substrate for the whole stack.

Every pool in the library is created here:

* :class:`WorkerPool` — named, sized, lazily-started pools over one FIFO
  queue, Future-style :class:`TaskHandle`\\ s, graceful
  drain/shutdown, and per-pool telemetry through
  :class:`~repro.serving.ServingTelemetry`.  Tasks run on worker threads of
  this one interpreter;
* :class:`Runtime` — the named-pool registry layers share (engine and sharding
  on one runtime = one set of workers), snapshot-aware: pools are
  dropped at save and rebuilt lazily after restore.  A pool is used only when
  it pays: :meth:`Runtime.run_inline` runs a batch on the caller's thread
  under the same metrics sink, and :func:`usable_cores` is the core count a
  dispatch decision may rely on.
"""

from .pool import TaskHandle, WorkerPool
from .runtime import Runtime, default_runtime, usable_cores

__all__ = [
    "Runtime",
    "TaskHandle",
    "WorkerPool",
    "default_runtime",
    "usable_cores",
]
