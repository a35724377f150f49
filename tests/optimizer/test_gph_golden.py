"""The GPH path answers exactly what ``data/gph_golden.json`` recorded.

The file holds plans (allocation, estimated candidates) and executions
(candidate count, matched ids) of a 2,000-row GPH attribute before and after
40 updates; ``data/make_gph_golden.py`` wrote it and :func:`golden` there
recomputes it.  Any change to candidate generation, the part histograms or
their maintenance under updates that moves one number fails here.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _script():
    spec = importlib.util.spec_from_file_location("make_gph_golden", DATA / "make_gph_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gph_answers_match_the_golden_file():
    expected = json.loads((DATA / "gph_golden.json").read_text())
    actual = _script().golden()
    assert actual["rows_after"] == expected["rows_after"]
    for phase in ("before", "after"):
        assert len(actual[phase]) == len(expected[phase])
        for index, (got, want) in enumerate(zip(actual[phase], expected[phase])):
            assert got == want, f"{phase}[{index}]"
