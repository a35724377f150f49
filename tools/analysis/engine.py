"""Drive every rule over files and fold results into one report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .context import ModuleContext
from .findings import Finding
from .rules import ALL_RULES
from .suppress import apply_suppressions, collect_suppressions

#: Report format version for the JSON artifact CI uploads.
REPORT_VERSION = 1


class AnalysisError(Exception):
    """A file could not be analyzed (syntax error, unreadable)."""


@dataclass
class AnalysisReport:
    """Findings across a set of files, plus suppression accounting."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "files": len(self.files),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "counts_by_code": self.counts_by_code,
            "ok": not self.findings,
        }


def analyze_source(
    source: str, path: str, rules: Optional[Sequence[type]] = None
) -> Tuple[List[Finding], List[Finding]]:
    """Run rules over one source string; returns (active, suppressed).

    ``path`` classifies the file (``src/`` strictness, the modules a rule
    exempts by path) exactly as it would on disk, so tests can present
    fixtures as any tree location.
    """
    try:
        ctx = ModuleContext.from_source(source, path)
    except SyntaxError as error:
        raise AnalysisError(f"{path}: {error}") from error
    findings: List[Finding] = []
    for rule in rules if rules is not None else ALL_RULES:
        findings.extend(rule(ctx).run())
    findings.sort()
    suppressions = collect_suppressions(source, path)
    return apply_suppressions(findings, suppressions, source)


def discover_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
        for candidate in candidates:
            if any(part.startswith(".") for part in candidate.parts):
                continue  # .git, .venv, editor droppings
            seen.setdefault(str(candidate), candidate)
    return list(seen.values())


def analyze_paths(
    paths: Iterable[str], rules: Optional[Sequence[type]] = None
) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths`` (files or directories)."""
    report = AnalysisReport()
    for path in discover_files(paths):
        source = path.read_text(encoding="utf-8")
        active, suppressed = analyze_source(source, str(path), rules)
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
        report.files.append(str(path))
    report.findings.sort()
    report.suppressed.sort()
    return report
