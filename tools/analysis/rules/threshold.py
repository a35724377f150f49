"""RPR011 — ``d <= θ`` is decided in ``repro/distances/base.py`` only.

``within`` and ``integer_radius`` there add the one tolerance ``THETA_SLACK``.
A second copy of the rule — a ``1e-12`` written out at a comparison, or a
threshold truncated with ``int()`` / ``.astype(np.int64)`` — answers some θ
unlike the linear scan: ``int(24 - 5e-13)`` is 23 where the scan admits 24,
and ``int(-0.5)`` admits distance-0 rows the scan rejects.

In library code outside ``repro/distances/base.py``, the rule flags every
``1e-12`` literal and every ``int(θ)`` / ``θ.astype(np.int64)`` /
``θ.astype(int)`` on a threshold expression.  A numeric guard that uses the
same literal but decides no threshold (a loss denominator, a split-gain
margin) carries a suppression naming what it guards.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor

#: The one module that may spell the slack out and truncate thresholds.
_RULE_MODULE = "repro/distances/base.py"

#: Names a threshold goes by in ``src/repro`` (``theta_max`` is a grid bound, not one).
THRESHOLD_NAMES = {"theta", "thetas", "threshold", "thresholds"}
#: Calls that pass their first argument through unchanged in kind.
PASS_THROUGH = {"asarray", "array", "float", "float64", "floor"}


def _is_threshold(node: ast.AST) -> bool:
    """Whether ``node`` is a threshold: a name from :data:`THRESHOLD_NAMES`,
    an attribute of that name, or one indexed, negated, offset or converted."""
    if isinstance(node, ast.Name):
        return node.id in THRESHOLD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in THRESHOLD_NAMES
    if isinstance(node, ast.Subscript):
        return _is_threshold(node.value)
    if isinstance(node, ast.UnaryOp):
        return _is_threshold(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_threshold(node.left) or _is_threshold(node.right)
    if isinstance(node, ast.Call) and node.args:
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in PASS_THROUGH and _is_threshold(node.args[0])
    return False


def _truncates_a_threshold(node: ast.Call) -> bool:
    """``int(θ)`` or ``θ.astype(np.int64)`` / ``θ.astype(int)``."""
    if isinstance(node.func, ast.Name) and node.func.id == "int":
        return len(node.args) == 1 and _is_threshold(node.args[0])
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        return (
            len(node.args) == 1
            and ast.unparse(node.args[0]) in ("np.int64", "int")
            and _is_threshold(node.func.value)
        )
    return False


class OneThresholdRule(ContextVisitor):
    """No second copy of the ``d <= θ`` rule in library code."""

    code = "RPR011"
    name = "one-threshold-rule"
    summary = "threshold slack or truncation outside distances/base.py"
    rationale = (
        "Answers must equal a linear scan at every θ; a hand-written 1e-12 or "
        "an int(θ) decides some θ differently from within / integer_radius, "
        "as PR 30 found int(threshold) doing in the Hamming index."
    )

    def _checked(self) -> bool:
        return self.ctx.in_src and not self.ctx.path.endswith(_RULE_MODULE)

    def visit_Constant(self, node: ast.Constant) -> None:
        if node.value == 1e-12 and self._checked():
            self.report(
                node,
                "1e-12 written out — decide d <= θ with repro.distances.base."
                "within, or suppress naming the numeric guard this is",
            )

    def check_call(self, node: ast.Call) -> None:
        if _truncates_a_threshold(node) and self._checked():
            self.report(
                node,
                f"{ast.unparse(node)} truncates a threshold — use "
                "repro.distances.base.integer_radius",
            )
