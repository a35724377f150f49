"""RPR010 — no index rebuilds on the update path.

The whole point of delta index maintenance is that an insert or delete costs
O(Δ): selectors absorb updates as append segments + tombstones
(``insert_many`` / ``delete_many``), sharded layouts apply routed local
deltas in place, and bindings resync column views without reconstructing
anything.  One stray ``selector.rebuild(records)`` — or a call through a
stored ``selector_factory`` — on an update code path silently reintroduces
the O(n) rebuild the subsystem exists to eliminate, and nothing fails: the
results stay bit-identical, only update latency quietly scales with the
dataset again.

The rule flags, in library code, every ``.rebuild(...)`` attribute call and
every call through a name containing ``selector_factory``, except where
from-scratch construction is the *job*:

* modules whose business is building indexes over new record sets —
  ``repro/selection/delta.py`` (the rebuild/bootstrap helpers) and
  ``repro/sharding/rebalance.py`` (staging new shard layouts);
* enclosing functions whose name marks a legitimate reconstruction site —
  containing ``compact``, ``rebuild``, ``bootstrap``, or ``register``
  (first-time registration), or ``__init__``.

Everything else is an update-path rebuild and needs either a fix or an
explicit ``# repro: ignore[RPR010] - reason`` with the justification.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor

#: Modules whose purpose is constructing indexes from records — rebuild
#: calls there *are* the maintenance machinery, not the update path.
_ALLOWED_MODULE_SUFFIXES = (
    "repro/selection/delta.py",
    "repro/sharding/rebalance.py",
)

#: An enclosing function with one of these markers is a legitimate
#: from-scratch construction site (registration, compaction, or an explicit
#: rebuild entry point).
_EXEMPT_FUNCTION_MARKERS = (
    "compact",
    "rebuild",
    "bootstrap",
    "register",
)


class UpdatePathRebuildRule(ContextVisitor):
    """Updates must be O(Δ) deltas, never from-scratch index rebuilds."""

    code = "RPR010"
    name = "update-path-rebuild"
    summary = "index rebuild on the update path defeats O(Δ) delta maintenance"
    rationale = (
        "selectors absorb inserts/deletes as append segments + tombstones; "
        "a rebuild() or selector_factory() call on the update path silently "
        "makes every update cost O(n) again while staying bit-identical, so "
        "only a latency benchmark would ever catch it."
    )

    def _exempt(self) -> bool:
        if not self.ctx.in_src:
            return True
        if self.ctx.path.endswith(_ALLOWED_MODULE_SUFFIXES):
            return True
        for name in self.enclosing_function_names():
            if name == "__init__" or any(
                marker in name for marker in _EXEMPT_FUNCTION_MARKERS
            ):
                return True
        return False

    def check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "rebuild":
                if not self._exempt():
                    self.report(
                        node,
                        "selector.rebuild() on the update path — absorb the "
                        "change as an O(Δ) delta (insert_many/delete_many) "
                        "or move the rebuild into a compaction/rebalance site",
                    )
                return
            if "selector_factory" in func.attr and not self._exempt():
                self.report(
                    node,
                    f"call through {func.attr!r} rebuilds an index from "
                    "scratch on the update path; apply the routed delta to "
                    "the existing selector instead",
                )
            return
        if isinstance(func, ast.Name) and "selector_factory" in func.id:
            if not self._exempt():
                self.report(
                    node,
                    f"call through {func.id!r} rebuilds an index from "
                    "scratch on the update path; apply the routed delta to "
                    "the existing selector instead",
                )
