"""Child-process side of the process-pool backend.

A process-backend :class:`~repro.runtime.WorkerPool` pairs each parent worker
thread 1:1 with a forked child process over a duplex pipe.  The parent thread
runs the exact same admission-control/queue/telemetry loop as the thread
backend, but instead of calling the task function it ships the (pre-pickled)
task down the pipe and blocks on the reply — the blocking ``recv`` releases
the GIL, so N children execute on N cores while the parent threads just
shepherd results.

Tasks must be picklable (module-level functions + plain-data arguments);
dataset arrays never ride along — they are published once through a
:class:`~repro.store.SharedDataPlane` and attached worker-side by mmap.  The
child is a daemon process: it exits on its pipe's sentinel (graceful
shutdown), on EOF (parent thread gone), or with the parent process itself —
no orphaned workers.

**Observability transport.**  The task envelope is ``(fn, args, kwargs)`` or
``(fn, args, kwargs, (trace_id, parent_span_id))`` when the submitter was
inside a trace; the reply is ``(code, obj, extras)`` where ``extras`` (or
``None``) carries what the child observed: metrics recorded during the task
(an exported registry state, mergeable parent-side) and — for traced tasks —
a ``"process.task"`` span subtree the parent re-parents under its own task
span.  Old two-element replies remain parseable, so the wire format is
tolerant in both directions.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Optional, Tuple

from ..obs.metrics import MetricsRegistry, use_registry
from ..obs.trace import Span, activate

#: Pipe message asking the child to exit its loop.
SHUTDOWN_SENTINEL = b"__repro_shutdown__"

#: Reply tags: (OK, value, extras) | (ERROR, exception, None)
#: | (OPAQUE_ERROR, repr-string, None).
OK, ERROR, OPAQUE_ERROR = 0, 1, 2

def run_child_loop(conn: Any) -> None:
    """The child process main: recv task bytes, execute, send the reply.

    Every task runs under a fresh per-task :class:`MetricsRegistry` pushed as
    the current registry — ambient instrumentation (shard-op counters,
    latency histograms) lands there instead of silently dying with the child,
    and the exported state rides back in the reply for the parent to merge.
    Traced tasks additionally run under a ``"process.task"`` root span built
    from the envelope's ``(trace_id, parent_span_id)``.

    Replies that cannot pickle (an exotic exception, an unpicklable return
    value) degrade to :data:`OPAQUE_ERROR` + ``repr`` instead of wedging the
    parent thread waiting on the pipe.
    """
    try:
        while True:
            try:
                message = conn.recv_bytes()
            except (EOFError, OSError):
                break
            if message == SHUTDOWN_SENTINEL:
                break
            reply: Tuple[int, Any, Optional[Dict[str, Any]]]
            try:
                task = pickle.loads(message)
                fn, args, kwargs = task[0], task[1], task[2]
                meta = task[3] if len(task) > 3 else None
                registry = MetricsRegistry()
                root: Optional[Span] = None
                if meta is not None:
                    root = Span("process.task", trace_id=meta[0], parent_id=meta[1])
                with use_registry(registry):
                    if root is not None:
                        with activate(root):
                            value = fn(*args, **kwargs)
                        root.finish()
                    else:
                        value = fn(*args, **kwargs)
                state = registry.export_state()
                extras: Optional[Dict[str, Any]] = None
                if state or root is not None:
                    extras = {"metrics": state or None, "span": root}
                reply = (OK, value, extras)
            except BaseException as exc:  # noqa: BLE001 — delivered to the caller
                reply = (ERROR, exc, None)
            try:
                conn.send(reply)
            except Exception:
                try:
                    conn.send((OPAQUE_ERROR, repr(reply[1]), None))
                except Exception:  # pragma: no cover - pipe gone, parent will see EOF
                    break
    finally:
        try:
            conn.close()
        except Exception:  # repro: ignore[RPR005] - child exiting; the parent observes the pipe EOF either way
            pass  # pragma: no cover
