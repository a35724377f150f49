"""Drift guard: every method the e2e harness traces still exists.

``benchmarks.e2e.tracing.traced()`` wraps each ``(owner, method)`` of its
``TARGETS`` on the owner class and on every subclass that defines it, and
skips any it cannot find, so a rename under ``src/`` would quietly drop a
per-layer reading.  This test reads the harness's table and resolves each
target by the harness's own rule; it edits nothing under ``benchmarks/e2e/``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro  # noqa: F401  (imports the subclasses the harness would wrap)

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_the_harness_traces_something():
    assert tracing.TARGETS


@pytest.mark.parametrize(
    "owner_path, attribute",
    [(owner_path, attribute) for owner_path, attribute, _, _ in tracing.TARGETS],
)
def test_trace_target_resolves(owner_path, attribute):
    module_name, _, class_name = owner_path.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        assert callable(vars(module).get(attribute)), f"{module_name}.{attribute}"
        return
    owners = tracing._subclasses(getattr(module, class_name))
    assert any(vars(owner).get(attribute) is not None for owner in owners), (
        f"no class in {class_name}'s hierarchy defines {attribute!r}"
    )
