"""Exact Hamming-distance selection via bit-packing and pigeonhole partitions.

Two selectors are provided:

* :class:`PackedHammingSelector` — bit-packs the dataset once and answers each
  query with a vectorized XOR + popcount scan.  This is the workhorse label
  generator for binary-vector datasets.
* :class:`PigeonholeHammingSelector` — the GPH-style multi-index (Qin et al.,
  ICDE 2018) that the paper's second query-optimizer case study builds on: the
  dimensions are split into ``m`` parts; a record can only be within Hamming
  distance ``θ`` of the query if at least one part is within the threshold
  allocated to that part (general pigeonhole principle).  Candidate sets are
  retrieved from per-part inverted indexes keyed by the part's bit pattern
  enumerated within the allocated radius, then verified exactly.

Both maintain their indexes under updates in O(Δ): inserts append packed rows
to capacity-doubling stores (and, for GPH, physical ids to the part buckets);
deletes tombstone rows that query paths mask out (see
:mod:`repro.selection.delta`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distances.hamming import (
    HammingDistance,
    pack_bits,
    pack_bits_words,
    packed_hamming_distances_words,
)
from .base import SimilaritySelector
from .delta import DeltaIndexMixin, GrowableArray


class PackedHammingSelector(DeltaIndexMixin, SimilaritySelector):
    """Vectorized exact scan over bit-packed binary vectors."""

    distance = HammingDistance()
    _SNAPSHOT_DROP = ("_packed64",)

    def __init__(self, dataset: Sequence) -> None:
        super().__init__([np.asarray(record, dtype=np.uint8) for record in dataset])
        matrix = np.stack(self._dataset) if self._dataset else np.zeros((0, 1), dtype=np.uint8)
        self._dimension = matrix.shape[1] if matrix.size else 0
        self._packed = GrowableArray(
            pack_bits(matrix) if matrix.size else np.zeros((0, 1), dtype=np.uint8)
        )
        # uint64 word view cached once: every query scans words, not bytes.
        self._packed64 = GrowableArray(pack_bits_words(self._packed.view()))
        self._init_delta()

    def query(self, record, threshold: float) -> List[int]:
        if len(self) == 0:
            return []
        distances = self.distances(record)
        return [int(i) for i in np.nonzero(distances <= int(threshold))[0]]

    def cardinality(self, record, threshold: float) -> int:
        if len(self) == 0:
            return 0
        distances = self.distances(record)
        return int(np.count_nonzero(distances <= int(threshold)))

    def distances(self, record) -> np.ndarray:
        """All Hamming distances from ``record`` to the dataset (used by workloads)."""
        query_words = pack_bits_words(pack_bits(np.asarray(record, dtype=np.uint8)))[0]
        distances = packed_hamming_distances_words(query_words, self._packed64.view())
        return self._live_rows(distances)

    # ------------------------------------------------------------------ #
    # Delta maintenance hooks
    # ------------------------------------------------------------------ #
    def _normalize_record(self, record) -> np.ndarray:
        return np.asarray(record, dtype=np.uint8)

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        matrix = np.stack(records)
        if matrix.shape[1] != self._dimension:
            raise ValueError(
                f"inserted records have {matrix.shape[1]} dimensions, index has {self._dimension}"
            )
        packed = pack_bits(matrix)
        self._packed.append(packed)
        self._packed64.append(pack_bits_words(packed))

    def _restore_derived(self) -> None:
        self._packed64 = GrowableArray(pack_bits_words(self._packed.view()))

    def cardinality_curve(self, record, thresholds) -> np.ndarray:
        """One packed XOR+popcount scan answers every threshold."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.size == 0 or len(self) == 0:
            return np.zeros(thresholds.size, dtype=np.int64)
        distances = self.distances(record)
        return np.count_nonzero(
            distances[None, :] <= thresholds.astype(np.int64)[:, None], axis=1
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


def enumerate_within_radius(bits: np.ndarray, radius: int) -> List[bytes]:
    """Enumerate all bit patterns within Hamming distance ``radius`` of ``bits``.

    Patterns are returned as ``bytes`` keys suitable for dictionary lookup.
    The number of patterns is ``sum_{k<=radius} C(len(bits), k)``, so callers
    must keep part sizes and radii small (as GPH does).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    width = len(bits)
    keys: List[bytes] = []
    for flip_count in range(0, radius + 1):
        for positions in combinations(range(width), flip_count):
            candidate = bits.copy()
            for position in positions:
                candidate[position] ^= 1
            keys.append(candidate.tobytes())
    return keys


class PigeonholeHammingSelector(DeltaIndexMixin, SimilaritySelector):
    """GPH-style exact selection: per-part inverted indexes + pigeonhole allocation."""

    distance = HammingDistance()
    _SNAPSHOT_DROP = ("_packed64",)

    def __init__(self, dataset: Sequence, part_size: int = 16) -> None:
        super().__init__([np.asarray(record, dtype=np.uint8) for record in dataset])
        if self._dataset:
            matrix = np.stack(self._dataset)
        else:
            matrix = np.zeros((0, 1), dtype=np.uint8)
        self._dimension = matrix.shape[1] if matrix.size else 0
        self.parts = split_dimensions(self._dimension, part_size)
        self._matrix = GrowableArray(matrix)
        self._packed = GrowableArray(
            pack_bits(matrix) if matrix.size else np.zeros((0, 1), dtype=np.uint8)
        )
        self._packed64 = GrowableArray(pack_bits_words(self._packed.view()))
        # One inverted index per part: bit pattern (bytes) -> physical row ids.
        self._part_indexes: List[Dict[bytes, List[int]]] = []
        for start, stop in self.parts:
            index: Dict[bytes, List[int]] = defaultdict(list)
            for record_id in range(len(matrix)):
                key = matrix[record_id, start:stop].tobytes()
                index[key].append(record_id)
            self._part_indexes.append(dict(index))
        self._init_delta()

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
        """Union of per-part candidate sets under the given threshold allocation.

        Returned ids index the live dataset (tombstoned rows are masked out).
        """
        record = np.asarray(record, dtype=np.uint8)
        candidate_ids: set[int] = set()
        for (start, stop), radius, index in zip(self.parts, allocation, self._part_indexes):
            part_bits = record[start:stop]
            for key in enumerate_within_radius(part_bits, int(radius)):
                bucket = index.get(key)
                if bucket:
                    candidate_ids.update(bucket)
        physical = np.fromiter(candidate_ids, dtype=np.int64, count=len(candidate_ids))
        if self._view.is_compact:
            return physical
        physical = physical[self._view.alive_rows[physical]]
        return self._view.to_logical(physical)

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
        threshold_int = int(threshold)
        if len(self) == 0:
            return [], 0
        if allocation is None:
            allocation = self.uniform_allocation(threshold_int)
        record = np.asarray(record, dtype=np.uint8)
        candidate_ids = self.candidates(record, allocation)
        if candidate_ids.size == 0:
            return [], 0
        physical_ids = (
            candidate_ids
            if self._view.is_compact
            else self._view.live_physical[candidate_ids]
        )
        query_words = pack_bits_words(pack_bits(record))[0]
        distances = packed_hamming_distances_words(
            query_words, self._packed64.view()[physical_ids]
        )
        matches = candidate_ids[distances <= threshold_int]
        return sorted(int(i) for i in matches), int(candidate_ids.size)

    def cardinality_curve(self, record, thresholds) -> np.ndarray:
        """One packed XOR+popcount scan answers every threshold."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.size == 0 or len(self) == 0:
            return np.zeros(thresholds.size, dtype=np.int64)
        query_words = pack_bits_words(pack_bits(np.asarray(record, dtype=np.uint8)))[0]
        distances = self._live_rows(
            packed_hamming_distances_words(query_words, self._packed64.view())
        )
        return np.count_nonzero(
            distances[None, :] <= thresholds.astype(np.int64)[:, None], axis=1
        ).astype(np.int64)

    def candidate_count(self, record, allocation: Sequence[int]) -> int:
        """Number of candidates produced by an allocation (query-optimizer cost)."""
        return int(self.candidates(np.asarray(record, dtype=np.uint8), allocation).size)

    def rebuild(self, dataset: Sequence) -> "PigeonholeHammingSelector":
        part_size = self.parts[0][1] - self.parts[0][0] if self.parts else 16
        return PigeonholeHammingSelector(dataset, part_size=part_size)

    # ------------------------------------------------------------------ #
    # Delta maintenance hooks
    # ------------------------------------------------------------------ #
    def _normalize_record(self, record) -> np.ndarray:
        return np.asarray(record, dtype=np.uint8)

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        matrix = np.stack(records)
        if matrix.shape[1] != self._dimension:
            raise ValueError(
                f"inserted records have {matrix.shape[1]} dimensions, index has {self._dimension}"
            )
        self._matrix.append(matrix)
        packed = pack_bits(matrix)
        self._packed.append(packed)
        self._packed64.append(pack_bits_words(packed))
        for row, physical_id in enumerate(physical_ids):
            for (start, stop), index in zip(self.parts, self._part_indexes):
                key = matrix[row, start:stop].tobytes()
                index.setdefault(key, []).append(int(physical_id))

    def _restore_derived(self) -> None:
        self._packed64 = GrowableArray(pack_bits_words(self._packed.view()))
