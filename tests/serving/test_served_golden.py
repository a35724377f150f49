"""The serving layer answers exactly what ``data/served_golden.txt`` recorded.

``data/make_served_golden.py`` builds the four SMOKE e2e fixtures, serves 200
estimate requests on each, and replays 20 updates on ``update_mix``; each
check prints one hashed line.  Any change that moves a served curve, a
retrain, a label or a query answer by one bit fails here.  The same replay,
saved and restored midway, must print the same lines: a restart resumes the
model, its labels and its pending delta exactly where they were.

The numbers depend on the NumPy build, the BLAS library and kernel and the
CPU as well as on the code, so the file's ``#`` header names them and a
mismatch skips the golden comparison (naming the field) instead of failing
it.  The restore check needs no golden file: it compares two runs on the same
machine, so it runs everywhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[2]
RESTORE_AT = 10


def _run(*args: str) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    completed = subprocess.run(
        [sys.executable, str(DATA / "make_served_golden.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return completed.stdout.splitlines()


def _split(lines: list):
    """(``{field: header line}``, check lines) of one output."""
    header = {
        line[2:].split(" ", 1)[0]: line for line in lines if line.startswith("# ")
    }
    return header, [line for line in lines if not line.startswith("#")]


GOLDEN_HEADER, GOLDEN = _split((DATA / "served_golden.txt").read_text().splitlines())


def _checked(lines: list) -> list:
    """The check lines of a run, after skipping if its environment differs
    from the one the golden file was written in."""
    header, body = _split(lines)
    for field, line in GOLDEN_HEADER.items():
        if header.get(field) != line:
            pytest.skip(
                f"served_golden.txt was written with {field} {line!r}; "
                f"this run has {header.get(field)!r}"
            )
    return body


@pytest.fixture(scope="module")
def served():
    """One run of the script: header, ``curves`` and ``replay`` lines."""
    return _run()


def test_served_answers_match_the_golden_file(served):
    assert _checked(served) == GOLDEN


def test_a_midway_restore_replays_the_same_lines(served):
    replay = [line for line in _split(served)[1] if line.startswith("replay ")]
    assert len(replay) == 20
    assert _split(_run("--replay-only", "--restore-at", str(RESTORE_AT)))[1] == replay
