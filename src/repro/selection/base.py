"""Interface for exact similarity-selection algorithms.

Exact selection serves three purposes in the reproduction, mirroring the paper:

1. Label generation for training/validation/testing workloads (§6.1).
2. The ``SimSelect`` row of the estimation-time comparison (Table 6).
3. The ``Exact`` oracle in the query-optimizer case studies (§9.11).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, List, Sequence

import numpy as np

from ..distances.base import DistanceFunction
from .delta import check_delete_positions, rebuild_in_place


class SimilaritySelector(ABC):
    """Answers similarity selection queries exactly over a fixed dataset."""

    #: The distance the selector decides by: every concrete selector names
    #: it, and :func:`~repro.workloads.builder.relabel_delta` measures Δ rows
    #: with it.
    distance: DistanceFunction

    def __init__(self, dataset: Sequence) -> None:
        self._dataset = list(dataset)
        self._mutations = 0

    def __len__(self) -> int:
        return len(self._dataset)

    @property
    def dataset(self) -> List:
        return self._dataset

    # ------------------------------------------------------------------ #
    # Update protocol (O(Δ) in delta-maintained subclasses)
    # ------------------------------------------------------------------ #
    @property
    def mutation_count(self) -> int:
        """Count of logical mutations applied through the update protocol."""
        return self._mutations

    def insert_many(self, records: Sequence) -> int:
        """Append records in place; returns the number inserted.

        Generic fallback for selectors without delta support: wholesale
        rebuild over the extended dataset, kept in place so every reference
        to this selector stays valid.  Delta-maintained selectors
        (:class:`~repro.selection.delta.DeltaIndexMixin`) override this with
        O(Δ) append-segment maintenance.
        """
        records = list(records)
        if not records:
            return 0
        rebuild_in_place(self, list(self.dataset) + records)
        self._mutations += 1
        return len(records)

    def delete_many(self, positions: Iterable[int]) -> int:
        """Delete the records at these live positions in place; returns the count.

        Strict: out-of-range positions raise ``IndexError``, duplicates raise
        ``ValueError``, an empty request is a no-op.
        """
        positions = check_delete_positions(len(self), positions)
        if positions.size == 0:
            return 0
        dataset = list(self.dataset)
        for position in positions[::-1]:
            del dataset[int(position)]
        rebuild_in_place(self, dataset)
        self._mutations += 1
        return int(positions.size)

    def needs_compaction(self) -> bool:
        return False

    def compact(self) -> int:
        """Reclaim tombstoned rows; returns rows reclaimed (0 without deltas)."""
        return 0

    @abstractmethod
    def query(self, record: Any, threshold: float) -> List[int]:
        """Return the indexes of all records within ``threshold`` of ``record``,
        as Python ints in ascending order — the order a linear scan yields,
        so callers compare and merge results without sorting."""

    def cardinality(self, record: Any, threshold: float) -> int:
        """Exact cardinality of the selection (length of :meth:`query`)."""
        return len(self.query(record, threshold))

    def cardinality_curve(self, record: Any, thresholds: Sequence[float]) -> np.ndarray:
        """Exact cardinality at every threshold, from ONE pass over the data.

        Label generation asks the same query record at many thresholds, so
        selectors answer the whole vector from a single distance computation:
        the default queries once at the largest threshold and derives every
        smaller count from the exact distances of those matches (any record
        within a smaller threshold is necessarily among them).  Each entry
        equals :meth:`cardinality` at that threshold exactly.
        """
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.size == 0:
            return np.zeros(0, dtype=np.int64)
        match_distances = self._match_distances(record, float(thresholds.max()))
        if match_distances is None:
            return np.asarray(
                [self.cardinality(record, float(theta)) for theta in thresholds],
                dtype=np.int64,
            )
        return np.count_nonzero(
            match_distances[None, :] <= thresholds[:, None] + 1e-12, axis=1
        ).astype(np.int64)

    def _match_distances(self, record: Any, threshold: float) -> "np.ndarray | None":
        """Exact distances of every record matching at ``threshold``, or ``None``
        when this selector has no batched verification kernel (the curve then
        falls back to one :meth:`cardinality` call per threshold)."""
        return None

    def rebuild(self, dataset: Sequence) -> "SimilaritySelector":
        """Return a new selector over an updated dataset (same configuration)."""
        return type(self)(dataset)
