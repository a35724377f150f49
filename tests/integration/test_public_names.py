"""Drift guard: ``__all__`` tells the truth.

A deletion that forgets a re-export fails here, in tier-1, and not in a user's
``from repro.store import ...``."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
) + ["tools.analysis"]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_resolves_once(package_name):
    package = importlib.import_module(package_name)
    exported = list(package.__all__)
    assert len(exported) == len(set(exported)), sorted(
        name for name in set(exported) if exported.count(name) > 1
    )
    missing = [name for name in exported if not hasattr(package, name)]
    assert not missing, f"{package_name}.__all__ names nothing importable: {missing}"
