"""RPR006 — state guarded once is guarded everywhere.

The lock-owning classes (``WorkerPool``, ``EstimationService``,
``MetricsRegistry``, ...) follow one discipline: any
attribute ever written under ``with self._lock`` is part of the class's
shared mutable state and every later write must also hold the lock.  A
single unlocked write reintroduces exactly the races PR 5's thread-safety
work removed — lost micro-batch resolutions, torn counter sums.

Recognized conventions (writes there are lock-held or single-threaded by
construction and neither establish nor violate guarding):

* ``__init__`` / ``__del__`` — construction and teardown;
* ``__snapshot_restore__`` / ``__snapshot_state__`` — snapshot hooks run
  single-threaded (save refuses in-flight work, restore precedes sharing);
* methods whose name ends in ``_locked`` — the repo's documented "caller
  holds the lock" suffix (``_spawn_locked``), except
  that their writes DO mark the attribute as guarded.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from ..context import ContextVisitor

_EXEMPT_METHODS = {"__init__", "__del__", "__snapshot_restore__", "__snapshot_state__"}


def _is_self_lock(node: ast.expr) -> bool:
    """``self._lock`` (or any ``self.*lock*`` attribute) as a context manager."""
    if isinstance(node, ast.Call):  # e.g. a lock wrapper call
        node = node.func
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and "lock" in node.attr.lower()
    )


def _written_attr(target: ast.expr) -> str:
    """Name of the ``self.<attr>`` an assignment target mutates, or ''."""
    # Peel subscripts: `self._entries[key] = v` mutates self._entries.
    while isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return ""


class LockDisciplineRule(ContextVisitor):
    """Attrs written under ``with self._lock`` never mutate outside one."""

    code = "RPR006"
    name = "lock-discipline"
    summary = "lock-guarded attribute mutated outside `with self._lock`"
    rationale = (
        "PR 5 made EstimationService thread-safe behind "
        "one lock; a single unlocked write to guarded state reintroduces "
        "lost-update races no test reliably catches."
    )

    def check_classdef(self, node: ast.ClassDef) -> None:
        # (attr, write node, locked?, method name) for every self.<attr> write.
        writes: List[Tuple[str, ast.stmt, bool, str]] = []
        uses_lock = False

        def scan(n: ast.AST, locked: bool, method: str) -> None:
            nonlocal uses_lock
            if isinstance(n, ast.ClassDef):
                return  # nested classes own their own discipline
            if isinstance(n, (ast.With, ast.AsyncWith)) and any(
                _is_self_lock(item.context_expr) for item in n.items
            ):
                uses_lock = True
                locked = True
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                for target in targets:
                    attr = _written_attr(target)
                    if attr:
                        writes.append((attr, n, locked, method))
            elif isinstance(n, ast.Delete):
                for target in n.targets:
                    attr = _written_attr(target)
                    if attr:
                        writes.append((attr, n, locked, method))
            for child in ast.iter_child_nodes(n):
                scan(child, locked, method)

        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(stmt, stmt.name.endswith("_locked"), stmt.name)
        if not uses_lock:
            return

        guarded: Set[str] = set()
        for attr, _, locked, method in writes:
            if locked and method not in _EXEMPT_METHODS:
                guarded.add(attr)
        for attr, stmt, locked, method in writes:
            if locked or attr not in guarded:
                continue
            if method in _EXEMPT_METHODS or method.endswith("_locked"):
                continue
            self.report(
                stmt,
                f"{node.name}.{attr} is written under `with self._lock` "
                f"elsewhere but mutated here ({method}) without it — hold "
                "the lock, or use the `_locked`-suffix convention if the "
                "caller already does",
            )
