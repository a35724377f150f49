"""The pinned on-disk snapshot format.

A snapshot is a directory holding exactly two files:

* ``arrays.bin`` — every numpy array of the captured object graph,
  concatenated as raw **little-endian**, C-contiguous bytes;
* ``manifest.json`` — the :class:`SnapshotManifest`: format name + version,
  the encoded object graph, and one entry per array pinning its dtype
  (explicit byte order), shape, byte offset/length, and SHA-256 checksum.

Everything about the byte layout is explicit so a snapshot written on one
machine restores bit-identically on any other: arrays are converted to
little-endian before hashing and writing, and converted back to the native
byte order (same values, same kind/itemsize) on read.  Any mismatch — wrong
format name, unsupported version, payload or per-array checksum, truncated
payload — raises a loud :class:`SnapshotFormatError`; there are no silent
partial restores.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Sequence, Tuple, Union

import numpy as np

PathLike = Union[str, os.PathLike]

FORMAT_NAME = "repro-snapshot"
# Version history:
#   1 — initial pinned format (PR 4).
#   2 — runtime refactor: EstimationService persists a BatchCoalescer instead
#       of a `_pending` dict, ShardedSelector/ReplicaSet persist a `runtime`
#       reference instead of `_pool`, EndpointStats gained
#       `auto_flush_failures`.  Version-1 snapshots would decode into objects
#       missing those attributes, so they are refused loudly here instead of
#       failing obscurely later.
#   3 — one maintenance path: the engine persists one `_links` map of
#       per-unit managers (no `_managers`/`_shard_managers`), bindings carry
#       no `version`, and an IncrementalUpdateManager shares its unit's index
#       instead of persisting `records`.  The "saved before …" restore
#       defaults of the engine, ShardedSelector and ReplicaSet went with it.
#   4 — array-native index probes: the edit and Jaccard selectors persist
#       only their records (every array a probe reads is re-derived on
#       restore); their `_grams`/`_inverted`/`_by_length`/`_sorted_records`/
#       `_order` state is gone, so a version-3 selector would restore without
#       the arrays its probe needs.
#   5 — one telemetry ledger: ServingTelemetry persists its MetricsRegistry
#       and nothing else (no `_endpoints`/`total` EndpointStats sums), and
#       micro-batch sizes and auto-flush failures live in registry metrics a
#       version-4 registry does not hold, so a version-4 telemetry would
#       restore with those readings lost.
#   6 — the deferred submit/flush queue and the sampling profiler are gone:
#       a version-5 EstimationService holds a BatchCoalescer and a
#       `max_batch_size`, a version-5 MonitoringHub a profiler object, and
#       neither class exists to decode into (ReplicaSet went in the same
#       change).
#   7 — the continuous-monitoring plane is gone: a version-6 engine carries a
#       `monitoring` attribute that may hold a MonitoringHub (with its
#       TimeSeriesStore, SLOEvaluator and AlertManager), and none of those
#       classes exists to decode into.
#   8 — the process backend is gone: a version-7 ShardedSelector carries a
#       `backend` and four shared-data-plane fields, and a version-7 engine
#       the width of its pipelined-execution pool; nothing reads them now.
#   9 — no restore shims, and the codec writes locks: a version-8
#       ShardedSelector may carry a `parallel` switch, a version-8 Runtime a
#       `_pools` registry and a version-8 MergedShardEstimator the service and
#       its shard endpoint names; a version-8 metric, registry, service or
#       sharded selector holds no lock, and no hook rebuilds one now.  From
#       here on, a change that drops a persisted attribute bumps the version
#       instead of teaching a `__snapshot_restore__` to pop the old key.
#  10 — one metrics ledger: a version-9 ShardedSelector carries a `runtime`
#       and a version-9 Runtime a `telemetry` reference; the Runtime is now
#       stateless and no selector holds one.
#  11 — a rebalance is one staged build and one checked swap: a version-10
#       ShardedSelector carries the update journal of a rebalance, and
#       nothing reads it now.
#  12 — GPH at array speed: a version-11 PigeonholeHammingSelector carries
#       one dict of row ids per part and an unpacked row copy (`_matrix`)
#       that nothing reads now (candidates come from the packed words), and
#       a version-11 HistogramHammingEstimator float pattern counts where
#       updates now add and subtract integer ones.
#  13 — one copy of the rows: a version-12 selector persists its logical
#       `_dataset` list beside its store (a Hamming selector its unpacked
#       bytes `_packed` too, a sharded selector a merged `_dataset`, an
#       attribute binding its `records`); a snapshot now holds each row once,
#       in the compacted physical store, and a tombstone view as its count.
#  14 — a sharded attribute registers like any other: a version-13 engine
#       persists a `_groups` map of sharded-serving group objects whose class
#       no longer exists to decode into, and a version-13
#       PigeonholeHammingSelector lacks the `part_size` it now persists.
#  15 — one sharding knob: no ShardedSelector `partitioner`, no endpoint `record_key`.
FORMAT_VERSION = 15

MANIFEST_FILENAME = "manifest.json"
PAYLOAD_FILENAME = "arrays.bin"


class SnapshotError(RuntimeError):
    """A snapshot could not be captured (unserializable live state)."""


class SnapshotFormatError(SnapshotError):
    """A snapshot on disk is unreadable: unknown format/version, checksum
    mismatch, truncation, or a manifest that does not parse.  Raised loudly
    instead of attempting any partial restore."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _little_endian(array: np.ndarray) -> np.ndarray:
    """The array as C-contiguous little-endian bytes-compatible memory."""
    # np.asarray(order="C") rather than ascontiguousarray: the latter
    # silently promotes 0-d arrays to shape (1,).
    array = np.asarray(array, order="C")
    if array.dtype.hasobject:
        raise SnapshotError(
            "cannot snapshot an object-dtype array; snapshot state must be "
            "numeric/bool/string arrays plus JSON-able metadata"
        )
    swapped = array.dtype.newbyteorder("<")
    if array.dtype != swapped:
        array = array.astype(swapped)
    return array


@dataclass
class ArrayEntry:
    """Manifest row pinning one array's exact bytes on disk."""

    dtype: str  # explicit little-endian numpy dtype string, e.g. "<f8", "|u1"
    shape: Tuple[int, ...]
    offset: int
    nbytes: int
    sha256: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
            "sha256": self.sha256,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ArrayEntry":
        try:
            return cls(
                dtype=str(data["dtype"]),
                shape=tuple(int(s) for s in data["shape"]),
                offset=int(data["offset"]),
                nbytes=int(data["nbytes"]),
                sha256=str(data["sha256"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(f"malformed array entry: {data!r}") from error


class ArrayWriter:
    """Accumulates arrays into the ``arrays.bin`` payload, one entry each."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._entries: List[ArrayEntry] = []
        self._offset = 0

    def add(self, array: np.ndarray) -> int:
        """Append one array; returns its index in the manifest array table."""
        normalized = _little_endian(array)
        dtype_str = normalized.dtype.str
        if dtype_str[0] not in "<|":
            raise SnapshotError(f"non-little-endian dtype {dtype_str!r} after normalization")
        data = normalized.tobytes(order="C")
        entry = ArrayEntry(
            dtype=dtype_str,
            shape=tuple(int(s) for s in normalized.shape),
            offset=self._offset,
            nbytes=len(data),
            sha256=_sha256(data),
        )
        self._chunks.append(data)
        self._offset += len(data)
        self._entries.append(entry)
        return len(self._entries) - 1

    @property
    def entries(self) -> List[ArrayEntry]:
        return self._entries

    def payload(self) -> bytes:
        return b"".join(self._chunks)


class LazyArrayReader:
    """Decodes arrays out of an open payload stream, one span at a time.

    The payload is never materialized whole: each array is read with one
    ``seek(offset)`` + ``read(nbytes)`` from its manifest entry and verified
    against its per-array SHA-256, so every byte handed out is checksummed and
    arrays the graph never references are never read.  The stream is opened
    once per load (:func:`~repro.store.load_component`), so a re-save that
    replaces the payload file mid-load cannot pull it away.  Decoded arrays
    are memoized by index so every reference to the same array in the object
    graph restores to the *same* ndarray object; they are fresh, writeable,
    native-byte-order copies with identical values.
    """

    def __init__(self, stream: BinaryIO, entries: Sequence[ArrayEntry]) -> None:
        self._stream = stream
        self._entries = list(entries)
        self._memo: Dict[int, np.ndarray] = {}

    def get(self, index: int) -> np.ndarray:
        if index in self._memo:
            return self._memo[index]
        try:
            entry = self._entries[index]
        except IndexError as error:
            raise SnapshotFormatError(f"array index {index} out of range") from error
        self._stream.seek(entry.offset)
        data = self._stream.read(entry.nbytes)
        if len(data) != entry.nbytes:
            raise SnapshotFormatError(
                f"array {index} is truncated: expected {entry.nbytes} bytes at "
                f"offset {entry.offset}, payload holds {len(data)}"
            )
        if _sha256(data) != entry.sha256:
            raise SnapshotFormatError(f"array {index} failed its SHA-256 checksum")
        dtype = np.dtype(entry.dtype)
        expected = dtype.itemsize * int(np.prod(entry.shape, dtype=np.int64))
        if expected != entry.nbytes:
            raise SnapshotFormatError(
                f"array {index}: dtype {entry.dtype} x shape {entry.shape} "
                f"needs {expected} bytes but entry records {entry.nbytes}"
            )
        flat = np.frombuffer(data, dtype=dtype)
        array = flat.reshape(entry.shape).astype(dtype.newbyteorder("="), copy=True)
        self._memo[index] = array
        return array


@dataclass
class SnapshotManifest:
    """Parsed ``manifest.json``: format header + object graph + array table."""

    version: int
    kind: str
    root: Any  # encoded value (see repro.store.codecs)
    objects: List[Dict[str, Any]]
    arrays: List[ArrayEntry]
    payload_sha256: str
    payload_bytes: int
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Name of the payload file inside the snapshot directory.  Content-named
    #: (``arrays-<sha12>.bin``) so re-saving over an existing snapshot never
    #: overwrites the payload the committed manifest still points at.
    payload_file: str = PAYLOAD_FILENAME

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": FORMAT_NAME,
            "version": self.version,
            "kind": self.kind,
            "payload": self.payload_file,
            "payload_sha256": self.payload_sha256,
            "payload_bytes": self.payload_bytes,
            "meta": self.meta,
            "root": self.root,
            "objects": self.objects,
            "arrays": [entry.to_json() for entry in self.arrays],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SnapshotManifest":
        if not isinstance(data, dict):
            raise SnapshotFormatError("manifest is not a JSON object")
        if data.get("format") != FORMAT_NAME:
            raise SnapshotFormatError(
                f"not a {FORMAT_NAME} manifest (format={data.get('format')!r})"
            )
        version = data.get("version")
        if version != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"unsupported snapshot format version {version!r}; this build "
                f"reads version {FORMAT_VERSION}"
            )
        payload_file = str(data.get("payload", PAYLOAD_FILENAME))
        if "/" in payload_file or "\\" in payload_file or payload_file in ("", ".", ".."):
            raise SnapshotFormatError(
                f"manifest names an unsafe payload file {payload_file!r}"
            )
        try:
            return cls(
                version=int(version),
                kind=str(data["kind"]),
                root=data["root"],
                objects=list(data["objects"]),
                arrays=[ArrayEntry.from_json(entry) for entry in data["arrays"]],
                payload_sha256=str(data["payload_sha256"]),
                payload_bytes=int(data["payload_bytes"]),
                meta=dict(data.get("meta", {})),
                payload_file=payload_file,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(f"malformed manifest: {error}") from error


def write_snapshot(path: PathLike, manifest: SnapshotManifest, payload: bytes) -> Path:
    """Write the payload + ``manifest.json`` atomically into directory ``path``.

    The manifest is serialized *before* anything touches the disk (a
    manifest that cannot serialize must not leave stray files).  The payload
    is content-named (``arrays-<sha12>.bin``), so re-saving over an existing
    snapshot directory never overwrites the payload the committed manifest
    references; the ``manifest.json`` replace is the single commit point — a
    crash at any instant leaves either the old snapshot or the new one, never
    a directory whose manifest and payload disagree.  Superseded payloads are
    cleaned up only after the commit.
    """
    manifest.payload_sha256 = _sha256(payload)
    manifest.payload_bytes = len(payload)
    manifest.payload_file = f"arrays-{manifest.payload_sha256[:12]}.bin"
    manifest_text = json.dumps(manifest.to_json())

    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    payload_path = directory / manifest.payload_file
    manifest_path = directory / MANIFEST_FILENAME
    payload_tmp = directory / (manifest.payload_file + ".tmp")
    manifest_tmp = directory / (MANIFEST_FILENAME + ".tmp")
    payload_tmp.write_bytes(payload)
    manifest_tmp.write_text(manifest_text, encoding="utf-8")
    os.replace(payload_tmp, payload_path)
    os.replace(manifest_tmp, manifest_path)  # the commit point
    for stale in directory.glob("arrays*"):
        if stale.name not in (manifest.payload_file, MANIFEST_FILENAME):
            try:
                stale.unlink()
            except OSError:  # repro: ignore[RPR005] - stale payload sweep; the next save retries the same glob
                pass  # pragma: no cover - best-effort cleanup
    return directory


def read_manifest(path: PathLike) -> SnapshotManifest:
    """Read and validate a snapshot's manifest WITHOUT reading the payload.

    The payload file's existence and size are checked against the manifest
    (by ``stat``, not by reading it) — the cheap probe behind
    :func:`repro.store.inspect_snapshot`.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise SnapshotFormatError(f"no snapshot at {directory} (missing {MANIFEST_FILENAME})")
    try:
        manifest_data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(f"unreadable manifest at {manifest_path}: {error}") from error
    manifest = SnapshotManifest.from_json(manifest_data)
    payload_path = directory / manifest.payload_file
    if not payload_path.is_file():
        raise SnapshotFormatError(
            f"snapshot at {directory} is missing its payload {manifest.payload_file}"
        )
    payload_size = payload_path.stat().st_size
    if payload_size != manifest.payload_bytes:
        raise SnapshotFormatError(
            f"payload is {payload_size} bytes but the manifest records "
            f"{manifest.payload_bytes}; refusing a partial restore"
        )
    return manifest
