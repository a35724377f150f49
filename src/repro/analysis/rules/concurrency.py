"""RPR001 / RPR003 — all concurrency lives in ``repro.runtime``.

PR 5 consolidated three ad-hoc ``ThreadPoolExecutor`` sites (sharding fan-out
and two paths since deleted, a replica router and the service's deferred
queue) into one runtime layer with named pools, drain/shutdown, and pool
telemetry.  RPR001 keeps it that way.
RPR003 guards the process backend added in PR 6: tasks are pickled at submit
time, so a lambda or closure handed to ``submit`` only fails at runtime, on
the worker, after the pool has already accepted it.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

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


class UnpicklableSubmitRule(ContextVisitor):
    """Callables passed to pool ``submit`` must be module-level."""

    code = "RPR003"
    name = "picklable-submit"
    summary = "lambda or nested function passed to a pool submit()"
    rationale = (
        "Process-backend tasks are pickled at submit time (PR 6); lambdas "
        "and closures pickle-fail only at runtime, on the worker — this "
        "moves the failure to lint time.  Library code (src/) only: it must "
        "stay backend-agnostic, while tests pinning backend='thread' may "
        "submit closures deliberately."
    )

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        # Function node → names of functions def'd directly inside it.
        self._nested_defs: Dict[ast.AST, Set[str]] = {}

    def check_functiondef(self, node: ast.AST) -> None:
        enclosing = self.current_function
        if enclosing is not None and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            self._nested_defs.setdefault(enclosing, set()).add(node.name)

    def _offending_arg(self, arg: ast.AST) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if isinstance(arg, ast.Name):
            for enclosing in self.func_stack:
                if arg.id in self._nested_defs.get(enclosing, set()):
                    return f"nested function {arg.id!r}"
            return None
        if isinstance(arg, ast.Call):
            resolved = self.ctx.resolve_name(arg.func)
            if resolved in ("functools.partial", "partial") and arg.args:
                return self._offending_arg(arg.args[0])
        return None

    def check_call(self, node: ast.Call) -> None:
        if not self.ctx.in_src:
            return
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "submit"):
            return
        if not node.args:
            return
        offender = self._offending_arg(node.args[0])
        if offender is not None:
            self.report(
                node,
                f"{offender} passed to submit() — process-backend tasks are "
                "pickled, so the callable must be module-level",
            )
