"""Mmap'd and lazy snapshot loads: the zero-copy read path.

Covers the mmap and lazy array readers behind ``load_arrays`` /
``load_component``, and the O(metadata) allocation guarantee of
``load_component(mmap=True)`` (the reader ``load_engine(mmap=True)`` uses).
"""

import tracemalloc

import numpy as np
import pytest

from repro.store import (
    SnapshotFormatError,
    load_arrays,
    load_component,
    save_component,
)


class TestMmapSnapshotLoads:
    def test_load_arrays_mmap_and_lazy_agree(self, tmp_path):
        payload = {"a": np.arange(12.0).reshape(3, 4), "b": np.arange(5)}
        save_component(payload, tmp_path / "snap")
        mapped = load_arrays(tmp_path / "snap", mmap=True)
        copied = load_arrays(tmp_path / "snap", mmap=False)
        assert len(mapped) == len(copied)
        for view, copy in zip(mapped, copied):
            assert np.array_equal(np.asarray(view), copy)

    def test_mmap_views_read_only_lazy_copies_writeable(self, tmp_path):
        save_component({"a": np.arange(6.0)}, tmp_path / "snap")
        (view,) = [a for a in load_arrays(tmp_path / "snap", mmap=True) if a.size == 6]
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 9.0
        (copy,) = [a for a in load_arrays(tmp_path / "snap", mmap=False) if a.size == 6]
        copy[0] = 9.0  # independent native copy: mutation is fine

    def test_load_arrays_indices_subset(self, tmp_path):
        save_component({"a": np.arange(4), "b": np.ones(3)}, tmp_path / "snap")
        subset = load_arrays(tmp_path / "snap", indices=[0], mmap=False)
        assert len(subset) == 1

    def test_corrupted_payload_refused_on_mmap_open(self, tmp_path):
        save_component({"a": np.arange(64.0)}, tmp_path / "snap")
        payload_file = next((tmp_path / "snap").glob("arrays-*.bin"))
        corrupted = bytearray(payload_file.read_bytes())
        corrupted[10] ^= 0x01
        payload_file.write_bytes(bytes(corrupted))
        with pytest.raises(SnapshotFormatError):
            load_arrays(tmp_path / "snap", mmap=True)
        with pytest.raises(SnapshotFormatError):
            load_arrays(tmp_path / "snap", mmap=False)

    def test_component_roundtrip_mmap(self, tmp_path):
        payload = {"weights": np.linspace(0, 1, 32), "grid": np.arange(7)}
        save_component(payload, tmp_path / "snap")
        restored = load_component(tmp_path / "snap", mmap=True)
        assert np.array_equal(restored["weights"], payload["weights"])
        assert np.array_equal(restored["grid"], payload["grid"])


class TestMmapEngineIsOMetadata:
    def test_mmap_load_allocates_far_less_than_payload(self, tmp_path):
        # A component dominated by one big array: the mmap'd load must NOT
        # materialize it.
        big = np.random.default_rng(0).normal(size=(2000, 2000))  # 32 MB
        info = save_component({"big": big, "small": np.arange(4)}, tmp_path / "snap")
        assert info.payload_bytes > 30_000_000
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        restored = load_component(tmp_path / "snap", mmap=True)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # O(metadata) + the fixed 1 MB streaming-checksum chunks — never the
        # 32 MB array itself.
        assert peak - before < 4_000_000
        assert peak - before < info.payload_bytes // 8
        assert restored["big"].shape == (2000, 2000)
        assert float(restored["big"][7, 13]) == float(big[7, 13])
