"""Interface for exact similarity-selection algorithms.

Exact selection serves three purposes in the reproduction, mirroring the paper:

1. Label generation for training/validation/testing workloads (§6.1).
2. The ``SimSelect`` row of the estimation-time comparison (Table 6).
3. The ``Exact`` oracle in the query-optimizer case studies (§9.11).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..distances.base import DistanceFunction, within


#: ``(fixed, per_row)`` µs of the default :meth:`SimilaritySelector.distances_at`
#: (``rows_at`` + the distance's kernel) per distance, on the distance's
#: default index (measured by ``calibrate_costs.py`` under ``docs/perf/``).
DEFAULT_VERIFY_COST_US = {
    "hamming": (36.0, 0.057),
    "edit": (150.0, 1.4),
    "jaccard": (14.0, 0.74),
    "euclidean": (9.8, 0.064),
}


class SimilaritySelector(ABC):
    """Answers similarity selection queries exactly over a fixed dataset."""

    #: The distance the selector decides by: every concrete selector names
    #: it, and :func:`~repro.workloads.builder.relabel_delta` measures Δ rows
    #: with it.
    distance: DistanceFunction

    @abstractmethod
    def __len__(self) -> int:
        """Number of live records."""

    @abstractmethod
    def rows_at(self, ids: Sequence[int]) -> Sequence:
        """The live records at these logical ids, read from the index's own
        store, in the form the distance's ``cross_distances`` takes: a 2-D
        ``uint8`` array for Hamming, a 2-D ``float64`` array for Euclidean, a
        list for edit and Jaccard."""

    @property
    def dataset(self) -> Sequence:
        """Every live record in logical order: :meth:`rows_at` over all of
        them, computed on each read and never cached (the index's store is
        the only copy of the rows)."""
        return self.rows_at(np.arange(len(self), dtype=np.int64))

    def distances_at(
        self, records: Sequence, ids: Sequence[int], owners: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Exact distances of (query, row) pairs, float64: from
        ``records[owners[k]]`` to the live row at logical id ``ids[k]``, for
        every ``k``; ``owners`` is ``None`` when ``records`` holds one query,
        which then owns every id.  Each value equals
        ``distance.cross_distances([records[owners[k]]], rows_at([ids[k]]))``
        bit for bit.  Residual verification decides by them.

        One kernel call over every pair: the index gathers its stored kernel
        input for the ids (:meth:`_verify_rows`) and runs its kernel over it
        (:meth:`_verify_kernel`).  A sharded index gathers every shard's input
        the same way and runs one shard's kernel once.
        """
        return self._verify_kernel(records, self._verify_rows(ids), owners)

    def _verify_rows(self, ids: Sequence[int]):
        """The kernel input for these logical ids, gathered from the index's
        store; by default the rows themselves (:meth:`rows_at`)."""
        return self.rows_at(ids)

    @staticmethod
    def _join_verify_rows(parts: Sequence):
        """The kernel inputs of several index parts (shards) as one, in order."""
        if len(parts) == 1:
            return parts[0]
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return [row for part in parts for row in part]

    def _verify_kernel(self, records: Sequence, rows, owners) -> np.ndarray:
        """:meth:`distances_at` over gathered kernel input; by default the
        distance's :meth:`~repro.distances.base.DistanceFunction.pair_distances`."""
        return self.distance.pair_distances(records, rows, owners)

    # ------------------------------------------------------------------ #
    # Cost model (what the planner prices a plan with, in µs)
    # ------------------------------------------------------------------ #
    #: ``(a, b, c)`` of a :meth:`query` costing ``a + b·len(self) + c·matches``
    #: µs, or ``None``: a probe then costs :meth:`verify_cost` over every
    #: stored row.  Class constants copied from the output of the
    #: calibration script ``calibrate_costs.py`` under ``docs/perf/``; not
    #: options.
    PROBE_COST_US: Optional[Tuple[float, float, float]] = None
    #: ``(fixed, per_row)`` of a :meth:`distances_at` call, µs, for a class
    #: with its own kernel; ``None`` prices the default kernel by distance
    #: (:data:`DEFAULT_VERIFY_COST_US`).
    VERIFY_COST_US: Optional[Tuple[float, float]] = None

    def probe_cost(self, estimate: float) -> float:
        """Estimated µs of one :meth:`query` that matches ``estimate`` rows."""
        if self.PROBE_COST_US is None:
            return self.verify_cost(len(self))
        fixed, per_stored, per_match = self.PROBE_COST_US
        return fixed + per_stored * len(self) + per_match * max(0.0, estimate)

    def verify_cost_coefficients(self) -> Tuple[float, float]:
        """``(fixed, per_row)`` µs of one :meth:`distances_at` call."""
        # Any other distance is priced as the slowest kernel, edit's.
        return self.VERIFY_COST_US or DEFAULT_VERIFY_COST_US.get(
            self.distance.name, DEFAULT_VERIFY_COST_US["edit"]
        )

    def verify_cost(self, rows: float) -> float:
        """Estimated µs of one :meth:`distances_at` call over ``rows`` ids."""
        fixed, per_row = self.verify_cost_coefficients()
        return fixed + per_row * max(0.0, rows)

    # ------------------------------------------------------------------ #
    # Update protocol (O(Δ): append segments + tombstones, or per shard)
    # ------------------------------------------------------------------ #
    @property
    def mutation_count(self) -> int:
        """Count of logical mutations applied through the update protocol
        (inserts and deletes; a compaction changes no row and counts nothing)."""
        return self._mutations

    @abstractmethod
    def insert_many(self, records: Sequence) -> int:
        """Append records in place; returns the number inserted."""

    @abstractmethod
    def delete_many(self, positions: Iterable[int]) -> int:
        """Delete the records at these live positions in place; returns the count.

        Strict: out-of-range positions raise ``IndexError``, duplicates raise
        ``ValueError``, an empty request is a no-op.
        """

    @abstractmethod
    def query(self, record: Any, threshold: float) -> List[int]:
        """Return the indexes of all records within ``threshold`` of ``record``,
        as Python ints in ascending order — the order a linear scan yields,
        so callers compare and merge results without sorting."""

    def query_many(self, records: Sequence, thresholds: Sequence[float]) -> List[np.ndarray]:
        """For each ``(records[k], thresholds[k])``: the ascending int64
        logical ids :meth:`query` returns.  By default one :meth:`query` per
        pair; an index whose scan serves many queries at once overrides it."""
        return [
            np.asarray(self.query(record, threshold), dtype=np.int64)
            for record, threshold in zip(records, thresholds, strict=True)
        ]

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
            within(match_distances[None, :], thresholds[:, None]), axis=1
        ).astype(np.int64)

    def _match_distances(self, record: Any, threshold: float) -> "np.ndarray | None":
        """Exact distances of every record matching at ``threshold``, or ``None``
        when this selector has no batched verification kernel (the curve then
        falls back to one :meth:`cardinality` call per threshold)."""
        return None

    def rebuild(self, dataset: Sequence) -> "SimilaritySelector":
        """Return a new selector over an updated dataset (same configuration)."""
        return type(self)(dataset)
