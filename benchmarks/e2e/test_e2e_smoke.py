"""Tier-1 smoke test of the end-to-end benchmark: the schema, not the numbers.

Runs the four workloads at ``--smoke`` scale through the same command line
the driver uses and checks what every later PR relies on: the names and units
in ``BENCHMARK.json`` are the ones the runner prints, nothing failed, and the
trace's self times are consistent.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_matches_the_runner(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT))
    from benchmarks.e2e import spec
    from benchmarks.e2e import workloads as wl

    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["workloads"] == [{"name": w.name, "why": w.why} for w in wl.WORKLOADS]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    assert len(MANIFEST["workloads"]) == 4
    assert len(MANIFEST["end_to_end"]) <= 16 and len(MANIFEST["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in MANIFEST["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_workload_smoke(workload):
    traced = run(workload, trace=1)
    assert traced["correct"] is True and traced["failed"] == 0 and traced["attempted"] >= 1
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["per_layer"]
    }

    # The full result of the same run carries the end-to-end metrics too.
    result = json.loads((HERE / "out" / f"{workload}.result.json").read_text())
    assert set(result["end_to_end"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    for row in result["end_to_end"].values():
        assert row["value"] > 0 and row["q1"] <= row["value"] <= row["q3"] and row["n"] >= 1
    for key in ("cpu_count", "affinity", "python", "numpy", "blas", "blas_thread_pins",
                "git_sha", "git_dirty", "loadavg_start", "loadavg_end", "seed", "scale", "ops"):
        assert key in result["environment"], key

    # Self times: never negative, never more than the span, and a span's
    # children on its own thread fit inside it.
    trace = json.loads((HERE / "out" / f"{workload}.trace.json").read_text())
    column = {name: index for index, name in enumerate(trace["columns"])}
    spans = trace["spans"]
    assert spans
    nested = {}
    for span in spans:
        duration = span[column["end_us"]] - span[column["start_us"]]
        assert 0 <= span[column["self_us"]] <= duration + 0.2
        parent = span[column["parent"]]
        if parent >= 0 and spans[parent][column["thread"]] == span[column["thread"]]:
            nested[parent] = nested.get(parent, 0.0) + duration
    for parent, covered in nested.items():
        row = spans[parent]
        assert covered + row[column["self_us"]] <= row[column["end_us"]] - row[column["start_us"]] + 1.0
    layers = {span[column["layer"]] for span in spans}
    if workload == "conj_repeat":
        assert "sharding" not in layers
    if workload == "conj_sharded_unique":
        assert {"sharding", "selection", "serving", "core", "featurization"} <= layers


def test_driver_line_without_trace():
    line = run("estimate_unique", trace=0)
    assert line["correct"] is True
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
