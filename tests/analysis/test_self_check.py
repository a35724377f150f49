"""The repo passes its own contract linter — the CI gate, as a test.

``python -m repro.analysis src benchmarks tests`` exiting 0 is an acceptance
criterion; running the same analysis in-process keeps the gate honest even
where CI is not involved, and pins the suppression accounting (every
``repro: ignore`` in the tree must be load-bearing, or RPR900 fires here).
"""

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_tree_has_zero_unsuppressed_findings():
    report = analyze_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "tests")]
    )
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert not report.findings, f"contract violations:\n{rendered}"


def test_suppressions_in_tree_are_all_used():
    # analyze_paths already folds unused suppressions in as RPR900; assert
    # the suppressed list is non-empty too — the tree deliberately carries
    # justified suppressions, and losing them all silently would mean the
    # matching logic broke, not that the tree got cleaner.
    report = analyze_paths([str(REPO_ROOT / "src")])
    assert not [f for f in report.findings if f.code == "RPR900"]
    assert report.suppressed, "expected justified suppressions in src/"


def test_src_analysis_covers_the_whole_package():
    report = analyze_paths([str(REPO_ROOT / "src")])
    covered = {Path(path).name for path in report.files}
    # Spot-check the layers the rules were written for.
    for expected in ("runtime.py", "service.py", "cache.py", "selector.py", "format.py"):
        assert expected in covered
