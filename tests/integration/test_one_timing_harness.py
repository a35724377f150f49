"""Drift guard: ``benchmarks/e2e/`` is the one timing harness.

The first benchmark system (one overwritten ``BENCH_<name>.json`` per script at
the repository root, a CI step per script, a flat gate over the files) was
retired in PR 22.  Nothing else would notice it growing back: a script that
writes its sample to the root, a ``bench_*.py`` nobody sorted into a bin, a CI
step that blocks a merge on one wall-clock reading."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: A row of README's file → claim table: ``| `bench_x.py` | ...``.
ROW = re.compile(r"^\| `(bench_[a-z0-9_]+\.py)` \|", re.MULTILINE)
#: A job of the workflow: a key indented by two spaces under ``jobs:``.
JOB = re.compile(r"^  ([a-z][a-z0-9-]*):\n", re.MULTILINE)


def test_no_benchmark_artifact_at_the_repository_root():
    assert sorted(path.name for path in ROOT.glob("BENCH_*.json")) == []


def test_every_bench_script_has_a_row_in_the_readme_table():
    scripts = sorted(path.name for path in (ROOT / "benchmarks").glob("bench_*.py"))
    rows = sorted(ROW.findall((ROOT / "README.md").read_text()))
    assert rows == scripts


def test_ci_names_no_bench_script_outside_the_reproductions_job():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs = workflow[workflow.index("\njobs:\n") + len("\njobs:\n") :]
    names = JOB.findall(jobs)
    bodies = dict(zip(names, JOB.split(jobs)[2::2]))
    assert "reproductions" in bodies
    naming = sorted(name for name, body in bodies.items() if "bench_" in body)
    assert naming in ([], ["reproductions"])
