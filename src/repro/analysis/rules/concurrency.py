"""RPR001 — the library constructs no thread.

Three ad-hoc executor sites (the sharding fan-out, a replica router and the
service's deferred queue) once became one runtime layer of named worker
pools.  Later the shard fan-out became a loop on the caller and a rebalance
builds its shards in a comprehension, and the pools went.  RPR001 keeps the
library thread-free: every step runs on the caller's thread.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor

#: Constructors that spawn execution vehicles.
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
    """No thread/process construction anywhere."""

    code = "RPR001"
    name = "no-adhoc-threads"
    summary = "a thread, executor or process constructed"
    rationale = (
        "The library constructs no thread: the shard fan-out is a loop and a "
        "rebalance builds its shards on the caller.  No workload ever reached "
        "a pool, and a thread the library owns cannot be driven "
        "deterministically by a test."
    )

    def check_call(self, node: ast.Call) -> None:
        resolved = self.ctx.resolve_name(node.func)
        if resolved in _FORBIDDEN_CONSTRUCTORS:
            self.report(
                node,
                f"{resolved} constructed — the library constructs no thread; "
                "run the work on the caller",
            )
