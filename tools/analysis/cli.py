"""Command line: ``python -m tools.analysis src benchmarks tests tools``.

Exit codes: 0 clean, 1 findings (including unused suppressions), 2 usage or
analysis failure (syntax error, missing path) — a file the linter cannot
parse fails the gate loudly rather than thinning coverage silently.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import AnalysisError, analyze_paths
from .findings import UNUSED_SUPPRESSION_CODE
from .rules import ALL_RULES


def _list_rules() -> str:
    lines = ["Contract rules (suppress with `# repro: ignore[CODE] - reason`):", ""]
    for rule in ALL_RULES:
        lines.append(f"  {rule.code}  {rule.name:<22} {rule.summary}")
        lines.append(f"         {' ' * 22} why: {rule.rationale}")
    lines.append(
        f"  {UNUSED_SUPPRESSION_CODE}  {'unused-suppression':<22} "
        "a `repro: ignore` comment matched no finding (not suppressible)"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="AST contract linter for repro's concurrency, snapshot, "
        "and determinism invariants.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--json", action="store_true", help="print the JSON report to stdout"
    )
    parser.add_argument(
        "--json-output",
        metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: src benchmarks tests tools)", file=sys.stderr)
        return 2

    try:
        report = analyze_paths(args.paths)
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for finding in report.findings:
            print(finding.render())
        counts = ", ".join(
            f"{code}×{count}" for code, count in report.counts_by_code.items()
        )
        summary = (
            f"{len(report.findings)} finding(s) [{counts}]"
            if report.findings
            else "OK: 0 findings"
        )
        print(
            f"{summary} — {len(report.files)} file(s) checked, "
            f"{len(report.suppressed)} suppressed"
        )
    return 1 if report.findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
