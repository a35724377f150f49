"""RPR001 — all concurrency lives in ``repro.runtime``.

PR 5 consolidated three ad-hoc ``ThreadPoolExecutor`` sites (sharding fan-out
and two paths since deleted, a replica router and the service's deferred
queue) into one runtime layer with named pools, drain/shutdown, and pool
telemetry.  RPR001 keeps it that way.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor

#: Constructors that spawn execution vehicles outside the runtime's control.
_FORBIDDEN_CONSTRUCTORS = {
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "threading.Thread",
    "multiprocessing.Process",
    "multiprocessing.Pool",
}


class AdHocThreadRule(ContextVisitor):
    """No thread/process construction outside ``repro/runtime/``."""

    code = "RPR001"
    name = "no-adhoc-threads"
    summary = (
        "ThreadPoolExecutor / threading.Thread / multiprocessing constructed "
        "outside repro/runtime/"
    )
    rationale = (
        "PR 5 removed three private ThreadPoolExecutors (ShardedSelector's "
        "and two in paths since deleted); ad-hoc threads bypass WorkerPool "
        "drain/shutdown, pool telemetry, and snapshot drop/rebuild hooks."
    )

    def check_call(self, node: ast.Call) -> None:
        if self.ctx.in_runtime:
            return
        resolved = self.ctx.resolve_name(node.func)
        if resolved in _FORBIDDEN_CONSTRUCTORS:
            self.report(
                node,
                f"{resolved} constructed outside repro/runtime/ — use "
                "Runtime.pool()/WorkerPool so drain/shutdown, telemetry, and "
                "snapshot hooks apply",
            )
