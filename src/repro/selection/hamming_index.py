"""Exact Hamming-distance selection via bit-packing and pigeonhole partitions.

Two selectors are provided:

* :class:`PackedHammingSelector` — bit-packs the dataset once and answers each
  query with a vectorized XOR + popcount scan.  This is the workhorse label
  generator for binary-vector datasets.
* :class:`PigeonholeHammingSelector` — the GPH-style multi-index (Qin et al.,
  ICDE 2018) that the paper's second query-optimizer case study builds on: the
  dimensions are split into ``m`` parts; a record can only be within Hamming
  distance ``θ`` of the query if at least one part is within the threshold
  allocated to that part (general pigeonhole principle).  Candidates come from
  the same packed words: part ``j`` collides when
  ``popcount((row ^ q) & mask_j) <= t_j``, one masked pass per part over the
  words that part's bits fall in; they are then verified exactly.

Both keep one store, the packed words, and read rows back from it; rows must
be 0/1.  Both maintain their indexes under updates in O(Δ): inserts append
packed rows to a capacity-doubling store; deletes tombstone rows that query
paths mask out (see :mod:`repro.selection.delta`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..distances.base import integer_radius
from ..distances.hamming import (
    HammingDistance,
    pack_bits,
    pack_bits_words,
    packed_hamming_distances_words,
    unpack_bits,
)
from .base import SimilaritySelector
from .delta import DeltaIndexMixin, GrowableArray


def _bit_matrix(rows: Sequence) -> np.ndarray:
    """``rows`` as one ``(n, d)`` ``uint8`` matrix of 0/1 values.

    An empty 2-D input keeps its width (an emptied index keeps its
    dimension); an empty list has none.  Any other value is refused with
    ``ValueError``: the packed words keep one bit per coordinate while
    :class:`HammingDistance` counts ``x != y``, so a stored 2 would read back
    as 1 and answers would disagree with a scan.
    """
    matrix = np.asarray(rows)
    if matrix.size == 0 and matrix.ndim != 2:
        matrix = np.zeros((0, 0), dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(f"binary rows must be vectors of one dimension, got shape {matrix.shape}")
    if not ((matrix == 0) | (matrix == 1)).all():
        raise ValueError("binary rows may hold only the values 0 and 1")
    return matrix.astype(np.uint8, copy=False)


class PackedHammingSelector(DeltaIndexMixin, SimilaritySelector):
    """Vectorized exact scan over bit-packed binary vectors.

    The packed uint64 words (``_packed64``) are the only copy of the rows:
    :meth:`rows_at` unpacks them, which is exact because every row is 0/1.
    """

    distance = HammingDistance()
    PROBE_COST_US = (17.0, 0.0023, 0.17)
    VERIFY_COST_US = (16.0, 0.008)

    def __init__(self, dataset: Sequence) -> None:
        matrix = _bit_matrix(dataset)
        self._dimension = matrix.shape[1]
        self._packed64 = GrowableArray(pack_bits_words(pack_bits(matrix)))
        self._init_delta(len(matrix))

    def query(self, record, threshold: float) -> List[int]:
        if len(self) == 0:
            return []
        distances = self.distances(record)
        return [int(i) for i in np.nonzero(distances <= integer_radius(threshold))[0]]

    def cardinality(self, record, threshold: float) -> int:
        if len(self) == 0:
            return 0
        distances = self.distances(record)
        return int(np.count_nonzero(distances <= integer_radius(threshold)))

    def distances(self, record) -> np.ndarray:
        """All Hamming distances from ``record`` to the dataset (used by workloads)."""
        distances = packed_hamming_distances_words(
            self._query_words(record), self._packed64.view()
        )
        return self._live_rows(distances)

    def _verify_rows(self, ids) -> np.ndarray:
        """The stored packed words of these ids: no unpacking."""
        return self._packed64.view()[self._physical_ids(ids)]

    def _verify_kernel(self, records, words: np.ndarray, owners) -> np.ndarray:
        """XOR + popcount of each pair's query words against its row's words:
        the same integers as the default path when every record is 0/1 (any
        other record sends the call down that path, over the unpacked rows)."""
        queries = np.asarray(records)
        if not ((queries == 0) | (queries == 1)).all():
            return super()._verify_kernel(records, self._unpack(words), owners)
        query_words = pack_bits_words(pack_bits(queries.astype(np.uint8)))
        xor = np.bitwise_xor(words, query_words[0] if owners is None else query_words[owners])
        return np.bitwise_count(xor).sum(axis=1, dtype=np.float64)

    def _query_words(self, record) -> np.ndarray:
        return pack_bits_words(pack_bits(np.asarray(record, dtype=np.uint8)))[0]

    # ------------------------------------------------------------------ #
    # Delta maintenance hooks
    # ------------------------------------------------------------------ #
    def _gather(self, physical_ids: np.ndarray) -> np.ndarray:
        return self._unpack(self._packed64.view()[physical_ids])

    def _unpack(self, words: np.ndarray) -> np.ndarray:
        """Packed word rows as 0/1 rows."""
        return unpack_bits(words.astype("<u8", copy=False).view(np.uint8), self._dimension)

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        matrix = _bit_matrix(records)
        if matrix.shape[1] != self._dimension:
            raise ValueError(
                f"inserted records have {matrix.shape[1]} dimensions, index has {self._dimension}"
            )
        self._packed64.append(pack_bits_words(pack_bits(matrix)))

    def cardinality_curve(self, record, thresholds) -> np.ndarray:
        """One packed XOR+popcount scan answers every threshold."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.size == 0 or len(self) == 0:
            return np.zeros(thresholds.size, dtype=np.int64)
        distances = self.distances(record)
        return np.count_nonzero(
            distances[None, :] <= integer_radius(thresholds)[:, None], axis=1
        ).astype(np.int64)


def split_dimensions(dimension: int, part_size: int) -> List[Tuple[int, int]]:
    """Split ``[0, dimension)`` into contiguous parts of at most ``part_size`` bits."""
    if part_size <= 0:
        raise ValueError("part_size must be positive")
    parts = []
    start = 0
    while start < dimension:
        stop = min(start + part_size, dimension)
        parts.append((start, stop))
        start = stop
    return parts


class PigeonholeHammingSelector(PackedHammingSelector):
    """GPH-style exact selection: per-part masked scans + pigeonhole allocation.

    The packed store, its delta hooks and the ``cardinality_curve`` scan are
    :class:`PackedHammingSelector`'s; ``query`` verifies the candidates of an
    allocation instead of scanning every row.
    """

    _SNAPSHOT_DROP = ("_part_masks",)
    PROBE_COST_US = (44.0, 0.0043, 0.047)

    def __init__(self, dataset: Sequence, part_size: int = 16) -> None:
        super().__init__(dataset)
        self.part_size = part_size
        self.parts = split_dimensions(self._dimension, part_size)
        self._mask_parts()

    def _restore_derived(self) -> None:
        self._mask_parts()

    def _mask_parts(self) -> None:
        """Per part: the slice of words its bits fall in and its 1-bit mask there."""
        self._part_masks: List[Tuple[slice, np.ndarray]] = []
        for start, stop in self.parts:
            bits = np.zeros(self._dimension, dtype=np.uint8)
            bits[start:stop] = 1
            words = slice(start // 64, (stop - 1) // 64 + 1)
            self._part_masks.append((words, pack_bits_words(pack_bits(bits))[0][words]))

    # ------------------------------------------------------------------ #
    # Threshold allocation
    # ------------------------------------------------------------------ #
    def uniform_allocation(self, threshold: int) -> List[int]:
        """Spread the threshold across parts as evenly as possible.

        By the general pigeonhole principle, if ``H(x, y) <= θ`` and the
        allocated per-part thresholds sum to at least ``θ - (m - 1)``, then at
        least one part ``j`` satisfies ``H(x_j, y_j) <= t_j``.  The classic
        allocation gives each part ``floor(θ / m)`` with the remainder spread
        over the first parts; this is the default when no query optimizer is
        involved.
        """
        num_parts = len(self.parts)
        if num_parts == 0:
            return []
        base = threshold // num_parts
        remainder = threshold % num_parts
        allocation = [base + (1 if i < remainder else 0) for i in range(num_parts)]
        # The pigeonhole condition requires sum(t_i) >= θ - (m - 1); the even
        # split satisfies sum(t_i) = θ which is always sufficient.
        return allocation

    def candidates(self, record: np.ndarray, allocation: Sequence[int]) -> np.ndarray:
        """Ascending live ids of the rows that collide with ``record`` in some
        part ``j`` within ``allocation[j]`` bits (tombstoned rows are masked out)."""
        return self._view.to_logical(self._candidate_rows(self._query_words(record), allocation))

    def _candidate_rows(self, query_words: np.ndarray, allocation: Sequence[int]) -> np.ndarray:
        """Ascending live physical rows where ``popcount((row ^ q) & mask_j) <= t_j``
        for some part ``j``: one pass over the packed words per part, reading
        only the words the part's mask touches."""
        xor = np.bitwise_xor(self._packed64.view(), query_words[None, :])
        hit = np.zeros(len(xor), dtype=bool)
        for (words, mask), radius in zip(self._part_masks, allocation):
            counts = np.bitwise_count(xor[:, words] & mask)
            hit |= (counts[:, 0] if counts.shape[1] == 1 else counts.sum(axis=1)) <= radius
        if not self._view.is_compact:
            hit &= self._view.alive_rows
        return np.flatnonzero(hit)

    # ------------------------------------------------------------------ #
    # Query answering
    # ------------------------------------------------------------------ #
    def query(
        self,
        record,
        threshold: float,
        allocation: Optional[Sequence[int]] = None,
    ) -> List[int]:
        matches, _ = self.verified_candidates(record, threshold, allocation)
        return matches

    def verified_candidates(
        self,
        record,
        threshold: float,
        allocation: Optional[Sequence[int]] = None,
    ) -> Tuple[List[int], int]:
        """(sorted matches, candidate count) under an allocation.

        The candidate count is the query-processing cost an allocation policy
        is judged by, so executors that report cost use this entry point
        instead of :meth:`query` to avoid enumerating candidates twice.
        """
        threshold_int = integer_radius(threshold)
        if len(self) == 0:
            return [], 0
        if allocation is None:
            allocation = self.uniform_allocation(threshold_int)
        query_words = self._query_words(record)
        rows = self._candidate_rows(query_words, allocation)
        distances = packed_hamming_distances_words(query_words, self._packed64.view()[rows])
        matches = self._view.to_logical(rows[distances <= threshold_int])
        return matches.tolist(), int(rows.size)

    def candidate_count(self, record, allocation: Sequence[int]) -> int:
        """Number of candidates produced by an allocation (query-optimizer cost)."""
        return int(self._candidate_rows(self._query_words(record), allocation).size)

    def rebuild(self, dataset: Sequence) -> "PigeonholeHammingSelector":
        return PigeonholeHammingSelector(dataset, part_size=self.part_size)
