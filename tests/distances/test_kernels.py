"""Raw-speed kernel tier: uint64 popcount and cross-distance kernels.

The fast paths must be bit-identical to the reference implementations they
replaced (Hamming, including at block boundaries and for widths that do not
divide evenly into words) or to the per-query kernel (Euclidean).
"""

import numpy as np
import pytest

import repro.distances.hamming as hamming_mod
from repro.distances import (
    EuclideanDistance,
    HammingDistance,
    pack_bits,
    unpack_bits,
)
from repro.distances.hamming import (
    pack_bits_words,
    packed_hamming_cross_distances,
    packed_hamming_distances,
    packed_hamming_distances_table,
    packed_hamming_distances_words,
)


class TestWordKernelVsTable:
    """Satellite: the uint64 kernel against the historical table path."""

    @pytest.mark.parametrize("dimension", [1, 7, 8, 9, 63, 64, 65, 127, 130])
    def test_identical_counts_all_widths(self, dimension):
        rng = np.random.default_rng(dimension)
        query = pack_bits(rng.integers(0, 2, size=(1, dimension)).astype(np.uint8))[0]
        data = pack_bits(rng.integers(0, 2, size=(200, dimension)).astype(np.uint8))
        fast = packed_hamming_distances(query, data)
        table = packed_hamming_distances_table(query, data)
        assert fast.dtype == np.int64
        assert (fast == table).all()

    def test_odd_byte_widths_pad_with_zeros(self):
        # 5 packed bytes per row: not a multiple of 8, forces the padded copy.
        rng = np.random.default_rng(5)
        packed = rng.integers(0, 256, size=(30, 5)).astype(np.uint8)
        words = pack_bits_words(packed)
        assert words.shape == (30, 1)
        assert (
            packed_hamming_distances(packed[0], packed)
            == packed_hamming_distances_table(packed[0], packed)
        ).all()

    def test_word_view_is_zero_copy_when_aligned(self):
        packed = np.zeros((4, 16), dtype=np.uint8)
        words = pack_bits_words(packed)
        assert words.base is packed  # a view, not a padded copy

    def test_blocked_path_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(3)
        data = pack_bits(rng.integers(0, 2, size=(500, 96)).astype(np.uint8))
        query = data[7]
        expected = packed_hamming_distances(query, data)
        # Shrink the block bound so the scan needs many blocks (including a
        # ragged final one).
        monkeypatch.setattr(hamming_mod, "KERNEL_BLOCK_BYTES", 64 * 8 * 7)
        blocked = packed_hamming_distances(query, data)
        assert (blocked == expected).all()

    def test_cross_distances_matches_elementwise(self):
        rng = np.random.default_rng(9)
        queries = rng.integers(0, 2, size=(12, 37)).astype(np.uint8)
        data = rng.integers(0, 2, size=(40, 37)).astype(np.uint8)
        fast = packed_hamming_cross_distances(pack_bits(queries), pack_bits(data))
        reference = np.count_nonzero(queries[:, None, :] != data[None, :, :], axis=2)
        assert (fast == reference).all()

    def test_hamming_distance_cross_uses_packed_kernel(self):
        rng = np.random.default_rng(1)
        queries = rng.integers(0, 2, size=(6, 50))
        data = rng.integers(0, 2, size=(25, 50))
        distance = HammingDistance()
        fast = distance.cross_distances(queries, data)
        loop = np.array([[distance.distance(q, x) for x in data] for q in queries])
        assert np.array_equal(fast, loop)


class TestPackBitsEdgeCases:
    """Satellite: pack/unpack edges — ragged dims, empty batches, 1-D rows."""

    @pytest.mark.parametrize("dimension", [1, 3, 8, 9, 15, 16, 17])
    def test_roundtrip_dims_not_divisible_by_8(self, dimension):
        rng = np.random.default_rng(dimension)
        vectors = rng.integers(0, 2, size=(11, dimension)).astype(np.uint8)
        packed = pack_bits(vectors)
        assert packed.shape == (11, -(-dimension // 8))
        assert np.array_equal(unpack_bits(packed, dimension), vectors)

    def test_single_row_1d_input_packs_as_one_row(self):
        vector = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        packed = pack_bits(vector)
        assert packed.shape == (1, 2)
        assert np.array_equal(unpack_bits(packed, 9)[0], vector)

    def test_empty_query_batch_cross_distances(self):
        data = np.random.default_rng(0).integers(0, 2, size=(10, 16))
        out = HammingDistance().cross_distances([], data)
        assert out.shape == (0, 10)
        out = EuclideanDistance().cross_distances([], np.ones((10, 4)))
        assert out.shape == (0, 10)

    def test_empty_dataset_word_kernel(self):
        query = pack_bits(np.ones((1, 16), dtype=np.uint8))[0]
        empty = np.zeros((0, 2), dtype=np.uint8)
        out = packed_hamming_distances_words(
            pack_bits_words(query)[0], pack_bits_words(empty)
        )
        assert out.shape == (0,)

    def test_single_row_1d_through_distances_to(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 2, size=(15, 13))
        query = rng.integers(0, 2, size=13)
        distance = HammingDistance()
        batch = distance.distances_to(query, data)
        assert batch.shape == (15,)
        assert np.allclose(batch, [distance.distance(query, row) for row in data])


class TestBlockedEuclidean:
    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(2)
        queries = rng.normal(scale=2e3, size=(9, 6))
        data = rng.normal(scale=2e3, size=(33, 6))
        distance = EuclideanDistance()
        stacked = np.stack([distance.distances_to(query, data) for query in queries])
        assert np.array_equal(distance.cross_distances(queries, data), stacked)

    def test_peak_memory_is_bounded_by_block(self):
        import tracemalloc

        rng = np.random.default_rng(6)
        queries = rng.normal(size=(400, 8))
        data = rng.normal(size=(2000, 8))
        distance = EuclideanDistance()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        out = distance.cross_distances(queries, data)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Beyond the output, one query's (n, d) difference temp and its two
        # (n,) rows are all that is live at once — never a (q, n, d) temp.
        # The constant covers numpy's fixed per-call allocations.
        assert peak - before < out.nbytes + data.nbytes + 2 * out.shape[1] * 8 + (1 << 16)
