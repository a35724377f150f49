"""Drift guard: ``d <= θ`` is decided in ``repro/distances/base.py`` only.

``within`` and ``integer_radius`` there add the one tolerance ``THETA_SLACK``.
A second copy of the rule — a ``1e-12`` written out at a comparison, or a
threshold truncated with ``int()`` / ``.astype(np.int64)`` — answers some θ
unlike the linear scan: ``int(24 - 5e-13)`` is 23 where the scan admits 24,
and ``int(-0.5)`` admits distance-0 rows the scan rejects.

Rule RPR011 of ``tools.analysis`` finds both copies; these tests run it over
``src/repro`` and pin the numeric guards that may carry its suppression, so a
new one is a reviewed change here rather than one more ``repro: ignore``.
"""

from __future__ import annotations

from pathlib import Path

from tools.analysis import analyze_paths
from tools.analysis.rules.threshold import OneThresholdRule

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Numeric guards that use the same literal but decide no threshold: a loss
#: denominator, a loss smoothing term, a split-gain margin, a zero-variance test.
ALLOWED_SLACK = {
    (Path("nn/losses.py"), "total = float(max(np.sum(weights), 1e-12))"),
    (Path("nn/losses.py"), "return ((diff * diff + 1e-12) ** 0.5).mean()"),
    (Path("baselines/gbt.py"), "if sse < total_sse - 1e-12 and (best is None or sse < best[0]):"),
    (Path("featurization/euclidean.py"), "if denominator <= 1e-12:"),
}


def _findings():
    """Every RPR011 finding in ``src/repro``, suppressed or not."""
    report = analyze_paths([str(SOURCE)], rules=[OneThresholdRule])
    return [
        finding
        for finding in report.findings + report.suppressed
        if finding.code == OneThresholdRule.code
    ]


def _located(finding):
    """``(module, code)`` of a finding's line, its trailing comment cut off."""
    path = Path(finding.path)
    line = path.read_text().splitlines()[finding.line - 1]
    return path.relative_to(SOURCE), line.split("  #")[0].strip()


def test_the_slack_literal_appears_only_in_the_rule_and_the_allowed_guards():
    found = {
        _located(finding)
        for finding in _findings()
        if finding.message.startswith("1e-12 written out")
    }
    assert found - ALLOWED_SLACK == set()


def test_the_allow_list_names_only_lines_that_exist():
    suppressed = analyze_paths([str(SOURCE)], rules=[OneThresholdRule]).suppressed
    assert ALLOWED_SLACK <= {_located(finding) for finding in suppressed}


def test_no_threshold_is_truncated_outside_the_rule():
    found = [
        finding.render()
        for finding in _findings()
        if "truncates a threshold" in finding.message
    ]
    assert found == []
