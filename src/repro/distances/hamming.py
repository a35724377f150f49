"""Hamming distance on binary vectors, with bit-packed batch kernels.

The raw-speed tier works on **uint64 words**: packed uint8 rows are padded to
a multiple of 8 bytes and viewed as ``uint64`` (zero-copy when the byte width
already divides evenly), then distances are one vectorized
``np.bitwise_count(x ^ q)`` reduction.  Compared to the historical
``_POPCOUNT_TABLE[xor]`` fancy-index path this avoids materializing an
``(n, bytes)`` uint8 lookup temp per query — the only temp is the
``(block, words)`` XOR buffer, 8x fewer elements and bounded by the block
size — and it is what lets one core sustain memory-bandwidth-limited scans.
The table path is kept (``packed_hamming_distances_table``) as the reference
the fast kernel is regression-tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import DistanceFunction

#: Upper bound on the transient XOR buffer of the blocked kernels, in bytes.
#: Big enough that per-block numpy dispatch overhead vanishes, small enough
#: to stay cache/memory friendly regardless of dataset size.
KERNEL_BLOCK_BYTES = 1 << 24


def pack_bits(vectors: np.ndarray) -> np.ndarray:
    """Pack a (n, d) 0/1 matrix into a (n, ceil(d/8)) uint8 matrix.

    Packing lets the batch Hamming kernel use ``np.bitwise_xor`` +
    ``popcount`` (via ``np.bitwise_count`` on uint64 words) which is
    dramatically faster than comparing unpacked arrays for large
    dimensionality.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    return np.packbits(vectors.astype(np.uint8), axis=1)


def unpack_bits(packed: np.ndarray, dimension: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, truncating padding columns."""
    return np.unpackbits(packed, axis=1)[:, :dimension]


def pack_bits_words(packed: np.ndarray) -> np.ndarray:
    """View a packed uint8 matrix as (n, ceil(bytes/8)) little-endian uint64.

    Zero-copy when the byte width is already a multiple of 8 and the rows are
    contiguous; otherwise the rows are padded with zero bytes (which never
    contribute to an XOR popcount) into a fresh word matrix.  Selectors cache
    the result next to the packed matrix so every query reuses it.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim == 1:
        packed = packed[None, :]
    n, nbytes = packed.shape
    pad = (-nbytes) % 8
    if pad == 0 and packed.flags.c_contiguous:
        return packed.view(np.dtype("<u8"))
    padded = np.zeros((n, nbytes + pad), dtype=np.uint8)
    padded[:, :nbytes] = packed
    return padded.view(np.dtype("<u8"))


_POPCOUNT_TABLE = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def packed_hamming_distances_table(
    query_packed: np.ndarray, dataset_packed: np.ndarray
) -> np.ndarray:
    """Reference byte-table popcount path (the pre-kernel-tier implementation).

    Kept as the ground truth the uint64 kernel is regression-tested against;
    it materializes an (n, bytes) lookup temp, so the fast path is preferred
    everywhere else.
    """
    xor = np.bitwise_xor(dataset_packed, query_packed)
    return _POPCOUNT_TABLE[xor].sum(axis=1).astype(np.int64)


def packed_hamming_distances_words(
    query_words: np.ndarray, dataset_words: np.ndarray
) -> np.ndarray:
    """Hamming distances from pre-converted uint64 word rows (the hot kernel).

    ``query_words`` is one row (shape ``(w,)``); ``dataset_words`` is
    ``(n, w)``.  Peak transient memory is bounded by
    :data:`KERNEL_BLOCK_BYTES` — the scan processes the dataset in row blocks
    reusing one XOR buffer.
    """
    dataset_words = np.asarray(dataset_words)
    query_words = np.asarray(query_words).reshape(-1)
    n, words = dataset_words.shape
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    block = max(1, KERNEL_BLOCK_BYTES // max(1, words * 8))
    if block >= n:
        xor = np.bitwise_xor(dataset_words, query_words[None, :])
        return np.bitwise_count(xor).sum(axis=1, dtype=np.int64)
    buffer = np.empty((block, words), dtype=np.uint64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        chunk = buffer[: stop - start]
        np.bitwise_xor(dataset_words[start:stop], query_words[None, :], out=chunk)
        np.bitwise_count(chunk).sum(axis=1, dtype=np.int64, out=out[start:stop])
    return out


def packed_hamming_distances(query_packed: np.ndarray, dataset_packed: np.ndarray) -> np.ndarray:
    """Hamming distances between one packed query row and many packed rows."""
    return packed_hamming_distances_words(
        pack_bits_words(query_packed)[0], pack_bits_words(dataset_packed)
    )


def packed_hamming_cross_distances(
    query_packed: np.ndarray, dataset_packed: np.ndarray
) -> np.ndarray:
    """(q, n) Hamming distance matrix over packed rows, blocked over queries.

    Each query block reuses the single-query word kernel, so the largest
    transient is the bounded per-query XOR buffer — never a ``(q, n, bytes)``
    broadcast temp.
    """
    query_words = pack_bits_words(query_packed)
    dataset_words = pack_bits_words(dataset_packed)
    out = np.empty((query_words.shape[0], dataset_words.shape[0]), dtype=np.int64)
    for row in range(query_words.shape[0]):
        out[row] = packed_hamming_distances_words(query_words[row], dataset_words)
    return out


class HammingDistance(DistanceFunction):
    """Number of positions at which two binary vectors differ."""

    name = "hamming"
    integer_valued = True

    def distance(self, x, y) -> float:
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        return float(np.count_nonzero(x != y))

    def distances_to(self, x, dataset: Sequence) -> np.ndarray:
        if len(dataset) == 0:
            return np.zeros(0)
        data = np.asarray(dataset)
        query = np.asarray(x)
        if data.ndim != 2:
            data = np.stack([np.asarray(record) for record in dataset])
        return np.count_nonzero(data != query[None, :], axis=1).astype(np.float64)

    def cross_distances(self, queries: Sequence, dataset: Sequence) -> np.ndarray:
        if len(queries) == 0 or len(dataset) == 0:
            return np.zeros((len(queries), len(dataset)))
        data = np.asarray(dataset)
        if data.ndim != 2:
            data = np.stack([np.asarray(record) for record in dataset])
        query_matrix = np.asarray(queries)
        if query_matrix.ndim != 2:
            query_matrix = np.stack([np.asarray(record) for record in queries])
        # The packed XOR+popcount kernel binarizes, so it only matches
        # distance()/distances_to() semantics for genuinely 0/1 data; fall
        # back to the elementwise comparison for anything else.
        if ((data == 0) | (data == 1)).all() and ((query_matrix == 0) | (query_matrix == 1)).all():
            return packed_hamming_cross_distances(
                pack_bits(query_matrix.astype(np.uint8)),
                pack_bits(data.astype(np.uint8)),
            ).astype(np.float64)
        return np.count_nonzero(
            query_matrix[:, None, :] != data[None, :, :], axis=2
        ).astype(np.float64)
