"""Drift guard: ``d <= θ`` is decided in ``repro/distances/base.py`` only.

``within`` and ``integer_radius`` there add the one tolerance ``THETA_SLACK``.
A second copy of the rule — a ``1e-12`` written out at a comparison, or a
threshold truncated with ``int()`` / ``.astype(np.int64)`` — answers some θ
unlike the linear scan: ``int(24 - 5e-13)`` is 23 where the scan admits 24,
and ``int(-0.5)`` admits distance-0 rows the scan rejects.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"
RULE = Path("distances/base.py")

#: Numeric guards that use the same literal but decide no threshold: a loss
#: denominator, a loss smoothing term, a split-gain margin, a zero-variance test.
ALLOWED_SLACK = {
    (Path("nn/losses.py"), "total = float(max(np.sum(weights), 1e-12))"),
    (Path("nn/losses.py"), "return ((diff * diff + 1e-12) ** 0.5).mean()"),
    (Path("baselines/gbt.py"), "if sse < total_sse - 1e-12 and (best is None or sse < best[0]):"),
    (Path("featurization/euclidean.py"), "if denominator <= 1e-12:"),
}

#: Names a threshold goes by in ``src/repro`` (``theta_max`` is a grid bound, not one).
THRESHOLD_NAMES = {"theta", "thetas", "threshold", "thresholds"}
#: Calls that pass their first argument through unchanged in kind.
PASS_THROUGH = {"asarray", "array", "float", "float64", "floor"}


def _modules():
    for path in sorted(SOURCE.rglob("*.py")):
        relative = path.relative_to(SOURCE)
        if relative != RULE:
            yield relative, path.read_text()


def _is_threshold(node) -> bool:
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


def _truncates_a_threshold(node) -> bool:
    """``int(θ)`` or ``θ.astype(np.int64)``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "int":
        return len(node.args) == 1 and _is_threshold(node.args[0])
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        return (
            len(node.args) == 1
            and ast.unparse(node.args[0]) in ("np.int64", "int")
            and _is_threshold(node.func.value)
        )
    return False


def test_the_slack_literal_appears_only_in_the_rule_and_the_allowed_guards():
    found = set()
    for relative, text in _modules():
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and node.value == 1e-12:
                found.add((relative, lines[node.lineno - 1].strip()))
    assert found - ALLOWED_SLACK == set()


def test_the_allow_list_names_only_lines_that_exist():
    lines = {
        (relative, line.strip()) for relative, text in _modules() for line in text.splitlines()
    }
    assert ALLOWED_SLACK <= lines


def test_no_threshold_is_truncated_outside_the_rule():
    found = [
        f"{relative}:{node.lineno}: {ast.unparse(node)}"
        for relative, text in _modules()
        for node in ast.walk(ast.parse(text))
        if _truncates_a_threshold(node)
    ]
    assert found == []


def test_the_guard_sees_the_copies_it_forbids():
    tree = ast.parse(
        "int(threshold)\n"
        "int(driver.theta)\n"
        "thresholds.astype(np.int64)[:, None]\n"
        "np.asarray(thetas, dtype=np.float64).astype(np.int64)\n"
        "np.floor(thetas + 1e-12).astype(np.int64)\n"
    )
    calls = [statement.value for statement in tree.body]
    calls[2] = calls[2].value  # the call under the subscript
    assert all(_truncates_a_threshold(call) for call in calls)
    assert not _truncates_a_threshold(ast.parse("int(theta_max)").body[0].value)
