"""Shared data plane: publish read-only arrays once, attach from any process.

The process-pool runtime backend must not pickle dataset arrays per task —
that would serialize the very bytes every worker already needs resident.
Instead the owner publishes its arrays ONCE through a
:class:`SharedDataPlane`: the arrays are written (checksummed, content-named,
little-endian — the snapshot payload format) into a plane directory, and the
returned :class:`PlaneHandle` is a tiny picklable description: payload path,
per-array offset table, checksum, JSON-able metadata.  Tasks carry the
handle; each worker process attaches at most once per plane
(:func:`attach_plane` memoizes by fingerprint) and gets the arrays back as
**read-only mmap views**, so N workers on one box share ONE physical copy of
the pages — zero-copy fan-out, however many cores are scanning.

Publishing is idempotent by content: the payload file is content-named, so
republishing identical arrays rewrites nothing and hands back an equal
handle.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import current_registry
from .format import (
    ArrayEntry,
    ArrayWriter,
    MmapArrayReader,
    PathLike,
    SnapshotFormatError,
    _sha256,
)


def _count_cleanup_failure(count: int = 1) -> None:
    """Count plane cleanup failures — leaked plane files must be observable.

    Cleanup runs on best-effort paths (``__del__`` included, where the
    metrics module may already be torn down), so the recording itself is
    guarded; the counter is the observability, not the recovery.
    """
    try:
        current_registry().counter(
            "repro_plane_cleanup_failures_total",
            description="plane files/directories that could not be removed",
        ).inc(count)
    except Exception:  # repro: ignore[RPR005] - interpreter teardown: the registry itself may be gone
        pass


@dataclass(frozen=True)
class PlaneHandle:
    """Picklable address of published arrays: path + offset table + checksum.

    This is everything a worker needs to attach — no live objects, a few
    hundred bytes on the wire regardless of how many gigabytes it points at.
    """

    path: str
    sha256: str
    nbytes: int
    #: name -> (dtype, shape, offset, nbytes, sha256) manifest rows.
    entries: Tuple[Tuple[str, ArrayEntry], ...]
    meta: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @property
    def fingerprint(self) -> str:
        """Cache key for worker-side attachment (content-derived)."""
        return self.sha256

    @property
    def metadata(self) -> Dict[str, Any]:
        return dict(self.meta)

    def attach(self, verified: bool = False) -> Dict[str, np.ndarray]:
        """Map the payload and return the named arrays as read-only views.

        The payload checksum is verified once (streaming) unless
        ``verified=True``; a corrupted or truncated plane file refuses
        loudly.  Prefer :func:`attach_plane`, which memoizes per process.
        """
        path = Path(self.path)
        if not path.is_file():
            raise SnapshotFormatError(f"no plane payload at {path}")
        if path.stat().st_size != self.nbytes:
            raise SnapshotFormatError(
                f"plane payload {path.name} is {path.stat().st_size} bytes, "
                f"handle records {self.nbytes}; refusing a partial attach"
            )
        names = [name for name, _ in self.entries]
        reader = MmapArrayReader(
            path,
            [entry for _, entry in self.entries],
            payload_sha256=self.sha256,
            verified=verified,
        )
        return {name: reader.get(index) for index, name in enumerate(names)}


#: Per-process attachment cache: plane fingerprint -> named arrays.  Worker
#: processes attach each plane once, then every task over it is zero-cost.
_ATTACHED: Dict[str, Dict[str, np.ndarray]] = {}

#: Per-process cache of objects rebuilt FROM a plane (e.g. a shard's
#: selector), keyed by (fingerprint, builder tag).  See cached_rebuild.
_REBUILT: Dict[Tuple[str, str], Any] = {}


def attach_plane(handle: PlaneHandle) -> Dict[str, np.ndarray]:
    """Process-wide memoized :meth:`PlaneHandle.attach`."""
    arrays = _ATTACHED.get(handle.fingerprint)
    if arrays is None:
        arrays = handle.attach()
        _ATTACHED[handle.fingerprint] = arrays
    return arrays


def cached_rebuild(handle: PlaneHandle, tag: str, builder) -> Any:
    """Build (once per process) an object from a plane's arrays + metadata.

    ``builder(arrays, meta)`` runs on first use per ``(plane, tag)``; later
    tasks over the same plane reuse the built object.  This is how a process
    worker turns "bytes on disk" into "a live selector" exactly once.
    """
    key = (handle.fingerprint, tag)
    built = _REBUILT.get(key)
    if built is None:
        built = builder(attach_plane(handle), handle.metadata)
        _REBUILT[key] = built
    return built


def _clear_attachments() -> None:
    """Drop this process's plane caches (tests, and post-update invalidation)."""
    _ATTACHED.clear()
    _REBUILT.clear()


class SharedDataPlane:
    """Publishes named array sets into one directory of content-named files.

    One plane directory typically serves one engine: each publish writes a
    ``plane-<sha12>.bin`` payload (atomic tmp+rename; identical content maps
    to the same file, so republishing is free) and returns the
    :class:`PlaneHandle` workers attach by.  The directory defaults to a
    fresh temp dir, cleaned up with :meth:`cleanup` (or leaked to the OS temp
    reaper — plane files are disposable caches, never primary state).
    """

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        if directory is None:
            self._directory = Path(tempfile.mkdtemp(prefix="repro-plane-"))
            self._owns_directory = True
        else:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
            self._owns_directory = False
        self._published: List[PlaneHandle] = []

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def published(self) -> List[PlaneHandle]:
        return list(self._published)

    def publish(
        self,
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
    ) -> PlaneHandle:
        """Write ``arrays`` (little-endian, checksummed) and return a handle."""
        writer = ArrayWriter()
        names = []
        for name, array in arrays.items():
            names.append(name)
            writer.add(np.asarray(array))
        payload = writer.payload()
        sha = _sha256(payload)
        path = self._directory / f"plane-{sha[:12]}.bin"
        if not path.is_file():
            tmp = path.with_suffix(".bin.tmp")
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        handle = PlaneHandle(
            path=str(path),
            sha256=sha,
            nbytes=len(payload),
            entries=tuple(zip(names, writer.entries)),
            meta=tuple(sorted((meta or {}).items())),
        )
        self._published.append(handle)
        return handle

    def cleanup(self) -> None:
        """Delete the plane files (and the directory, if this plane made it)."""
        failures = 0
        for handle in self._published:
            try:
                Path(handle.path).unlink(missing_ok=True)
            except OSError:  # pragma: no cover - counted below
                failures += 1
        self._published = []
        if self._owns_directory:
            try:
                self._directory.rmdir()
            except OSError:  # repro: ignore[RPR005] - shared/non-empty directory is expected; nothing leaked
                pass  # pragma: no cover - directory not empty / gone
        if failures:  # pragma: no cover - OS-dependent unlink failure
            _count_cleanup_failure(failures)

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.cleanup()
        except Exception:
            # A leaked plane file is disk quietly filling up: make the
            # failure observable instead of swallowing it (RPR005).
            _count_cleanup_failure()
