"""RPR002 — snapshot hooks come in matched pairs.

``repro.store`` captures object state through ``__snapshot_state__`` and
rebuilds through ``__snapshot_restore__``; whichever side is missing falls
back to a plain ``__dict__`` copy/update.  A class customizing only one side
is a drift trap: a custom ``state`` that drops an attribute restores an
object missing it, and a custom ``restore`` re-establishing an invariant
(frozen curves, a re-armed factory) silently depends on the default capture shape
nobody pinned.  Restore-only classes (CurveCache, SimilarityQueryEngine)
shipped before this rule existed; they now define both hooks explicitly.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor

_HOOKS = ("__snapshot_state__", "__snapshot_restore__")


class SnapshotHookPairRule(ContextVisitor):
    """``__snapshot_state__``/``__snapshot_restore__`` defined per class in pairs."""

    code = "RPR002"
    name = "snapshot-hook-pairs"
    summary = "class defines only one of __snapshot_state__/__snapshot_restore__"
    rationale = (
        "A lone hook couples a custom capture (or rebuild) to the implicit "
        "__dict__ default on the other side — the PR 4/6 snapshot format "
        "bump showed that shape drifting silently."
    )

    def check_classdef(self, node: ast.ClassDef) -> None:
        defined = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _HOOKS
        }
        if len(defined) != 1:
            return
        present = next(iter(defined))
        missing = _HOOKS[1] if present == _HOOKS[0] else _HOOKS[0]
        self.report(
            defined[present],
            f"class {node.name} defines {present} without {missing} — "
            "snapshot hooks must come in matched pairs (define the other "
            "side, even if it is the explicit __dict__ default)",
        )
