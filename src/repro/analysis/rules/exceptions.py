"""RPR005 — no exception vanishes without a trace.

PR 3 found drift detection dead for an entire release because a swallowed
validation error made ``FeedbackMonitor`` clamp silently; PR 5 added an
``auto_flush_failures`` counter after ``EstimationService.submit`` was found
eating auto-flush errors (path and counter were deleted in PR 24; the lesson
stays).  The contract: an except handler either *does
something observable* (count it, log it, re-raise, return a fallback) or
carries an explicit suppression saying why silence is safe.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor


def _is_silent_statement(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # docstring or bare `...`
    return False


class SilentExceptionRule(ContextVisitor):
    """Except handlers must count, log, re-raise, or be explicitly excused."""

    code = "RPR005"
    name = "no-silent-swallow"
    summary = "except handler swallows the exception with a bare pass"
    rationale = (
        "PR 3's dead drift detection and PR 5's invisible auto-flush "
        "failures both hid behind silent handlers; swallowed exceptions "
        "must hit a metrics counter or carry a justified suppression."
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if all(_is_silent_statement(stmt) for stmt in node.body):
            caught = "exception"
            if node.type is not None:
                caught = ast.unparse(node.type)
            self.report(
                node,
                f"{caught} swallowed without a metrics counter — count it "
                "(obs.metrics), handle it, or suppress with a reason",
            )
        self.generic_visit(node)
