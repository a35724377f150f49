"""Runtime layer: one concurrent execution substrate for the whole stack.

Every pool in the library is created here:

* :class:`WorkerPool` — named, sized, lazily-started pools over one FIFO
  queue, Future-style :class:`TaskHandle`\\ s, graceful
  drain/shutdown, and per-pool telemetry through
  :class:`~repro.serving.ServingTelemetry`.  Tasks run on worker threads of
  this one interpreter;
* :class:`Runtime` — the named-pool registry layers share (an engine and its
  rebalances on one runtime = one set of workers), snapshot-aware: pools are
  dropped at save and rebuilt lazily after restore.  Work too small for a
  pool runs through :meth:`Runtime.run_inline`: on the caller's thread,
  under the same metrics sink (the shard fan-out always does).
"""

from .pool import TaskHandle, WorkerPool
from .runtime import Runtime, default_runtime

__all__ = [
    "Runtime",
    "TaskHandle",
    "WorkerPool",
    "default_runtime",
]
