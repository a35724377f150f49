"""Setuptools shim enabling legacy editable installs in offline environments.

The canonical metadata lives in ``pyproject.toml`` (name, version, ``src/``
layout, dependencies); ``setup()`` reads it from there.  This file exists so
that ``pip install -e . --no-build-isolation --no-use-pep517`` works on
machines without the ``wheel`` package or network access (PEP 517 editable
builds need ``bdist_wheel``).
"""

from setuptools import setup

setup()
