"""Persistence layer: versioned engine snapshots and warm-start restore.

Trained monotone estimators are cheap to serve but expensive to train; this
subsystem makes the trained state durable.  A snapshot directory captures a
full :class:`~repro.engine.SimilarityQueryEngine` — models (with optimizer
moments), baseline estimators, selection indexes, shard assignments, the warm
curve cache, endpoint/telemetry tables, and the feedback loop's drift windows
— and restores it bit-identically, so a process restart resumes serving and
incremental retraining instead of rebuilding.

* :mod:`repro.store.format` — the pinned on-disk format (explicit
  little-endian dtypes, SHA-256 checksums, loud
  :class:`SnapshotFormatError` on any mismatch);
* :mod:`repro.store.codecs` — object-graph ↔ (manifest, array table) codecs
  with shared-reference/cycle preservation;
* :mod:`repro.store.snapshot` — ``save_engine``/``load_engine`` (with
  ``mmap=True``: a zero-copy, read-only restore) and the generic component
  facades.
"""

from .format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    LazyArrayReader,
    MmapArrayReader,
    SnapshotError,
    SnapshotFormatError,
    SnapshotManifest,
    load_arrays,
)
from .snapshot import (
    SnapshotInfo,
    inspect_snapshot,
    load_component,
    load_engine,
    save_component,
    save_engine,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotManifest",
    "SnapshotInfo",
    "save_engine",
    "load_engine",
    "save_component",
    "load_component",
    "inspect_snapshot",
    "LazyArrayReader",
    "MmapArrayReader",
    "load_arrays",
]
