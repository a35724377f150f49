"""Drift guard: ``docs/metrics_catalog.md`` and the metric names under ``src/``
list the same set, and every catalogued metric names its reader.  RPR009
lints how a name is spelled; nothing else checks that an emitted metric is
documented, that a documented one still exists, or that anything reads it."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Every ``repro_*`` string literal under ``src/`` is a metric name (the
#: environment switches are upper-case, the snapshot kinds dotted).
LITERAL = re.compile(r"""["'](repro_[a-z0-9_]+)["']""")
#: A catalog row: ``| `name` | type | labels | meaning | read by |``; the last
#: cell is ``None`` on a row that has no "read by" column.
ROW = re.compile(
    r"^\| `(repro_[a-z0-9_]+)` \| (counter|histogram) \| [^|\n]* \| [^|\n]* \|"
    r"(?:([^|\n]*)\|)?[ \t]*$",
    re.MULTILINE,
)


def _emitted() -> dict:
    names: dict = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name in LITERAL.findall(path.read_text()):
            names.setdefault(name, path.relative_to(ROOT))
    return names


def _catalogued() -> dict:
    """Name → (type, "read by" cell or ``None``)."""
    text = (ROOT / "docs" / "metrics_catalog.md").read_text()
    return {match[1]: (match[2], match[3]) for match in ROW.finditer(text)}


def test_every_emitted_metric_has_a_catalog_row():
    missing = {name: str(path) for name, path in _emitted().items() if name not in _catalogued()}
    assert not missing, f"metrics without a row in docs/metrics_catalog.md: {missing}"


def test_every_catalog_row_has_an_emitter():
    stale = sorted(set(_catalogued()) - set(_emitted()))
    assert not stale, f"catalog rows no code under src/ emits: {stale}"


def test_catalogued_counters_are_the_total_suffixed_names():
    for name, (kind, _) in _catalogued().items():
        assert (kind == "counter") == name.endswith("_total"), (name, kind)


def test_every_catalog_row_names_its_reader():
    unread = sorted(
        name for name, (_, read_by) in _catalogued().items()
        if read_by is None or not read_by.strip()
    )
    assert not unread, f"catalog rows with no 'read by' cell: {unread}"
