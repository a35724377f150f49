"""Snapshot facades: capture a component (or a whole engine) to a directory.

``save_component``/``load_component`` work for any snapshottable object graph
(an estimator, a :class:`~repro.sharding.ShardedSelector`, an
:class:`~repro.serving.EstimationService` with its endpoints, …).
``save_engine``/``load_engine`` wrap them for the common case — a full
:class:`~repro.engine.SimilarityQueryEngine` — adding an inventory to the
manifest and a type check on restore.

A restored engine is a faithful copy of the saved one: same trained
parameters and optimizer moments, same selection indexes, same warm curve
cache, same endpoint/telemetry/feedback-window state, same per-shard
assignment — so it produces bit-identical estimates, plans, and results, and
its drift/retrain loop continues exactly where the original's left off.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from .codecs import GraphDecoder, GraphEncoder
from .format import (
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    LazyArrayReader,
    PathLike,
    SnapshotFormatError,
    SnapshotManifest,
    read_manifest,
    write_snapshot,
)

ENGINE_KIND = "engine"
COMPONENT_KIND = "component"


@dataclass
class SnapshotInfo:
    """What a save produced (or what :func:`inspect_snapshot` found)."""

    path: Path
    kind: str
    format_version: int
    payload_bytes: int
    manifest_bytes: int
    num_arrays: int
    num_objects: int
    meta: Dict[str, Any]

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.manifest_bytes


def save_component(
    obj: Any,
    path: PathLike,
    kind: str = COMPONENT_KIND,
    meta: Optional[Dict[str, Any]] = None,
) -> SnapshotInfo:
    """Snapshot ``obj`` (and everything reachable from it) into ``path``."""
    encoder = GraphEncoder()
    root = encoder.encode(obj)
    manifest = SnapshotManifest(
        version=FORMAT_VERSION,
        kind=kind,
        root=root,
        objects=encoder.objects,
        arrays=encoder.writer.entries,
        payload_sha256="",
        payload_bytes=0,
        meta=dict(meta or {}),
    )
    directory = write_snapshot(path, manifest, encoder.writer.payload())
    return SnapshotInfo(
        path=directory,
        kind=kind,
        format_version=FORMAT_VERSION,
        payload_bytes=manifest.payload_bytes,
        manifest_bytes=(directory / MANIFEST_FILENAME).stat().st_size,
        num_arrays=len(manifest.arrays),
        num_objects=len(manifest.objects),
        meta=manifest.meta,
    )


def load_component(path: PathLike, expected_kind: Optional[str] = None) -> Any:
    """Restore the object graph saved at ``path`` (checksums verified).

    The payload file is opened once and NOT slurped with one monolithic read:
    each array is fetched by seek + length from its manifest entry and
    verified against its per-array SHA-256 (every decoded byte is
    checksummed; arrays the graph never references are never read).  Restored
    arrays are writeable copies, so a restored model can keep training.
    """
    manifest = read_manifest(path)
    if expected_kind is not None and manifest.kind != expected_kind:
        raise SnapshotFormatError(
            f"snapshot at {path} holds a {manifest.kind!r}, expected {expected_kind!r}"
        )
    try:
        stream = open(Path(path) / manifest.payload_file, "rb")
    except OSError as error:
        raise SnapshotFormatError(
            f"payload {manifest.payload_file} vanished before the snapshot at {path} "
            "was read (concurrent re-save?); retry the load"
        ) from error
    with stream:
        reader = LazyArrayReader(stream, manifest.arrays)
        return GraphDecoder(manifest.objects, reader).decode(manifest.root)


def save_engine(engine: Any, path: PathLike) -> SnapshotInfo:
    """Snapshot a full :class:`~repro.engine.SimilarityQueryEngine`.

    The manifest's ``meta`` records the component inventory — attributes,
    serving endpoints, cache fill, attached managers — so a snapshot is
    inspectable (:func:`inspect_snapshot`) without decoding the payload.
    """
    meta = {
        "component": "SimilarityQueryEngine",
        "attributes": engine.catalog.names(),
        "endpoints": engine.service.registry.names(),
        "cached_curves": len(engine.service.cache),
        "managed_attributes": sorted(engine._links),
        "sharded_attributes": [
            name for name in engine.catalog.names() if engine.catalog.get(name).sharded
        ],
        "drift_events": len(engine.feedback.events),
    }
    return save_component(engine, path, kind=ENGINE_KIND, meta=meta)


def load_engine(path: PathLike) -> Any:
    """Restore an engine saved by :func:`save_engine` (warm-start restore)."""
    from ..engine.engine import SimilarityQueryEngine

    engine = load_component(path, expected_kind=ENGINE_KIND)
    if not isinstance(engine, SimilarityQueryEngine):
        raise SnapshotFormatError(
            f"snapshot at {path} decoded to {type(engine).__name__}, "
            "not a SimilarityQueryEngine"
        )
    return engine


def inspect_snapshot(path: PathLike) -> SnapshotInfo:
    """Read a snapshot's manifest (headers + inventory) without restoring it.

    The payload is neither read nor checksum-verified here (only its size is
    stat-checked against the manifest) — use :func:`load_component` /
    :func:`load_engine` to actually restore; this is the cheap existence /
    inventory probe for tooling.
    """
    manifest = read_manifest(path)
    directory = Path(path)
    return SnapshotInfo(
        path=directory,
        kind=manifest.kind,
        format_version=manifest.version,
        payload_bytes=manifest.payload_bytes,
        manifest_bytes=(directory / MANIFEST_FILENAME).stat().st_size,
        num_arrays=len(manifest.arrays),
        num_objects=len(manifest.objects),
        meta=manifest.meta,
    )
