"""repro.analysis — AST contract linter for the repo's cross-cutting invariants.

Seven PRs in, the codebase's correctness rests on contracts no type checker
sees: the library constructs no thread, everything reachable from an
engine must snapshot-roundtrip, timings must be monotonic, swallowed
exceptions must be counted, lock-guarded state must stay guarded, cached
arrays must be frozen, and results must be bit-identical (seeded RNG only).  Each rule here encodes one of those
contracts — most were violated at least once before being fixed by hand.

Usage::

    python -m repro.analysis src benchmarks tests
    python -m repro.analysis src --json
    python -m repro.analysis --list-rules

Per-line suppression (same line or the line directly above)::

    stamp = time.time()  # repro: ignore[RPR004] - wall-clock label, not a duration

Suppressions that match no finding are themselves reported (RPR900), so a
stale ``ignore`` cannot silently outlive the violation it excused.

The rule catalog lives in ``docs/analysis_rules.md``; every rule docstring
names the historical bug or pinned invariant it encodes.
"""

from .findings import Finding, Suppression
from .engine import AnalysisReport, analyze_paths, analyze_source
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "Suppression",
    "analyze_paths",
    "analyze_source",
]
