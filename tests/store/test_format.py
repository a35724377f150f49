"""The pinned on-disk format: explicit dtype/byte order, loud failures."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.store import (
    FORMAT_VERSION,
    SnapshotFormatError,
    load_component,
    save_component,
)
from repro.store.format import (
    MANIFEST_FILENAME,
    ArrayWriter,
    LazyArrayReader,
    SnapshotManifest,
    read_manifest,
    write_snapshot,
)


def _payload_file(directory):
    """The committed payload (content-named): resolve it via the manifest."""
    return directory / read_manifest(directory).payload_file


def roundtrip(arrays):
    writer = ArrayWriter()
    indices = [writer.add(array) for array in arrays]
    reader = LazyArrayReader(io.BytesIO(writer.payload()), writer.entries)
    return [reader.get(index) for index in indices]


class TestArrayRoundTrip:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.arange(7, dtype=np.int64),
            np.array([1, 0, 1], dtype=np.uint8),
            np.array([True, False, True]),
            np.linspace(0, 1, 9, dtype=np.float32).reshape(3, 3),
            np.array([], dtype=np.float64),
            np.array(3.5),  # 0-d
            np.array(["ab", "cde", ""], dtype="<U3"),
            np.array([b"xy", b"z"], dtype="|S2"),
            np.array([np.nan, np.inf, -np.inf, -0.0]),
        ],
        ids=["f8-2d", "i8", "u1", "bool", "f4-2d", "empty", "scalar", "U", "S", "nonfinite"],
    )
    def test_bit_identical_values(self, array):
        (restored,) = roundtrip([array])
        assert restored.shape == array.shape
        assert restored.dtype.kind == array.dtype.kind
        assert restored.dtype.itemsize == array.dtype.itemsize
        np.testing.assert_array_equal(restored, array)
        if array.dtype.kind in "iuf":
            # Bit-identical, not merely value-equal (NaN payloads and -0.0
            # included): compare the raw little-endian bytes.
            little = array.dtype.newbyteorder("<")
            assert (
                np.ascontiguousarray(restored).astype(little).tobytes()
                == np.ascontiguousarray(array).astype(little).tobytes()
            )

    def test_big_endian_input_restores_native_with_identical_values(self):
        array = np.arange(6, dtype=">f8").reshape(2, 3)
        (restored,) = roundtrip([array])
        assert restored.dtype.byteorder in ("=", "<", "|")
        np.testing.assert_array_equal(restored, array)

    def test_restored_arrays_are_writeable_owned_copies(self):
        (restored,) = roundtrip([np.arange(4.0)])
        assert restored.flags.writeable
        restored[0] = 99.0  # must not raise

    def test_entries_pin_explicit_little_endian_dtype(self):
        writer = ArrayWriter()
        writer.add(np.arange(3, dtype=np.float64))
        writer.add(np.array([1], dtype=np.uint8))
        dtypes = [entry.dtype for entry in writer.entries]
        assert dtypes == ["<f8", "|u1"]

    def test_same_index_returns_same_object(self):
        writer = ArrayWriter()
        index = writer.add(np.arange(5.0))
        reader = LazyArrayReader(io.BytesIO(writer.payload()), writer.entries)
        assert reader.get(index) is reader.get(index)

    def test_object_dtype_is_rejected_loudly(self):
        from repro.store import SnapshotError

        writer = ArrayWriter()
        with pytest.raises(SnapshotError, match="object-dtype"):
            writer.add(np.array([object()], dtype=object))

    def test_checksum_mismatch_raises(self):
        writer = ArrayWriter()
        index = writer.add(np.arange(8, dtype=np.int64))
        payload = bytearray(writer.payload())
        payload[3] ^= 0xFF
        reader = LazyArrayReader(io.BytesIO(bytes(payload)), writer.entries)
        with pytest.raises(SnapshotFormatError, match="SHA-256"):
            reader.get(index)

    def test_truncated_payload_raises(self):
        writer = ArrayWriter()
        index = writer.add(np.arange(8, dtype=np.int64))
        reader = LazyArrayReader(io.BytesIO(writer.payload()[:-4]), writer.entries)
        with pytest.raises(SnapshotFormatError, match="truncated"):
            reader.get(index)

    def test_dtype_shape_byte_budget_mismatch_raises(self):
        writer = ArrayWriter()
        index = writer.add(np.arange(8, dtype=np.int64))
        writer.entries[index].dtype = "<i4"  # same bytes and checksum, half the budget
        reader = LazyArrayReader(io.BytesIO(writer.payload()), writer.entries)
        with pytest.raises(SnapshotFormatError, match="needs 32 bytes but entry records 64"):
            reader.get(index)


def _write_minimal_snapshot(path, values=None):
    writer = ArrayWriter()
    index = writer.add(
        np.arange(10, dtype=np.float64) if values is None else np.asarray(values)
    )
    manifest = SnapshotManifest(
        version=FORMAT_VERSION,
        kind="component",
        root={"t": "array", "id": index},
        objects=[],
        arrays=writer.entries,
        payload_sha256="",
        payload_bytes=0,
    )
    return write_snapshot(path, manifest, writer.payload())


class TestSnapshotFiles:
    def test_write_read_verifies(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        assert read_manifest(directory).version == FORMAT_VERSION
        restored = load_component(directory)
        np.testing.assert_array_equal(restored, np.arange(10, dtype=np.float64))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no snapshot"):
            load_component(tmp_path / "nowhere")

    def test_corrupt_payload_raises(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        payload_file = _payload_file(directory)
        data = bytearray(payload_file.read_bytes())
        data[0] ^= 0xFF
        payload_file.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_component(directory)

    def test_truncated_payload_raises(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        payload_file = _payload_file(directory)
        payload_file.write_bytes(payload_file.read_bytes()[:-1])
        with pytest.raises(SnapshotFormatError, match="partial restore"):
            load_component(directory)

    def test_resave_over_existing_directory_is_crash_safe(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        old_payload = _payload_file(directory)
        # A crash AFTER a new payload lands but BEFORE the manifest commit
        # must leave the old snapshot fully readable (content-named payloads
        # never overwrite the committed one).
        (directory / "arrays-0123456789ab.bin").write_bytes(b"half-written new payload")
        np.testing.assert_array_equal(
            load_component(directory), np.arange(10, dtype=np.float64)
        )
        # A completed re-save commits the new content and cleans up stale
        # payloads, including the fake crash leftover.
        _write_minimal_snapshot(directory, values=np.ones(3))
        new_payload = _payload_file(directory)
        assert new_payload != old_payload
        leftovers = sorted(p.name for p in directory.glob("arrays*"))
        assert leftovers == [new_payload.name]
        np.testing.assert_array_equal(load_component(directory), np.ones(3))

    def test_resave_during_a_load_does_not_pull_the_payload_away(self, tmp_path, monkeypatch):
        """Read one array, re-save the directory (its commit unlinks the old
        payload), read the next: the load holds the payload it opened."""
        directory = tmp_path / "snap"
        saved = {"a": np.arange(4.0), "b": np.ones(3)}
        save_component(saved, directory)
        get = LazyArrayReader.get
        resaves = []

        def get_then_resave(reader, index):
            array = get(reader, index)
            if not resaves:
                resaves.append(save_component({"other": np.zeros(5)}, directory))
            return array

        monkeypatch.setattr(LazyArrayReader, "get", get_then_resave)
        restored = load_component(directory)
        assert len(resaves) == 1
        assert sorted(restored) == ["a", "b"]
        for key, array in saved.items():
            np.testing.assert_array_equal(restored[key], array)
        monkeypatch.undo()
        np.testing.assert_array_equal(load_component(directory)["other"], np.zeros(5))

    def test_manifest_with_unsafe_payload_name_raises(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        manifest_file = directory / MANIFEST_FILENAME
        data = json.loads(manifest_file.read_text())
        data["payload"] = "../outside.bin"
        manifest_file.write_text(json.dumps(data))
        with pytest.raises(SnapshotFormatError, match="unsafe payload"):
            load_component(directory)

    def test_version_mismatch_raises(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        manifest_file = directory / MANIFEST_FILENAME
        data = json.loads(manifest_file.read_text())
        data["version"] = FORMAT_VERSION + 1
        manifest_file.write_text(json.dumps(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_component(directory)

    def test_pre_bump_manifest_is_refused_naming_both_versions(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        manifest_file = directory / MANIFEST_FILENAME
        data = json.loads(manifest_file.read_text())
        assert FORMAT_VERSION == 15  # one sharding knob (14 = a `partitioner` object)
        data["version"] = 14
        manifest_file.write_text(json.dumps(data))
        with pytest.raises(SnapshotFormatError, match=r"version 14\b.*version 15\b"):
            load_component(directory)

    def test_foreign_format_name_raises(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        manifest_file = directory / MANIFEST_FILENAME
        data = json.loads(manifest_file.read_text())
        data["format"] = "something-else"
        manifest_file.write_text(json.dumps(data))
        with pytest.raises(SnapshotFormatError, match="manifest"):
            load_component(directory)

    def test_garbage_manifest_raises(self, tmp_path):
        directory = _write_minimal_snapshot(tmp_path / "snap")
        (directory / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(SnapshotFormatError, match="unreadable"):
            load_component(directory)
