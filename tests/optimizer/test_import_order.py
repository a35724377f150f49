"""``repro.engine.planner`` imports ``repro.optimizer.gph`` and
``repro.optimizer.conjunctive`` imports engine specs: each package must import
first, in a fresh interpreter, whichever the caller names first."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.optimizer",
        "import repro.engine",
        "import repro",
        "import repro.optimizer, repro.engine",
        "import repro.engine, repro.optimizer",
    ],
)
def test_fresh_interpreter_import(statement):
    result = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
