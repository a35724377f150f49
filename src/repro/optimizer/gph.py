"""GPH Hamming-distance query processing with cardinality-driven threshold
allocation (paper §9.11.2).

GPH (Qin et al., ICDE 2018) answers a Hamming selection over high-dimensional
binary vectors by splitting the dimensions into ``m`` parts and allocating a
per-part threshold with the general pigeonhole principle: if the allocated
thresholds satisfy ``Σ_i t_i >= θ - m + 1``, every true result collides with
the query in at least one part within that part's threshold.  Candidates are
the rows where some part collides within its threshold — one masked popcount
pass per part over the packed rows — and are then verified exactly.

The *query optimizer* chooses the allocation that minimizes the sum of the
estimated per-part cardinalities (a dynamic program over parts × budget).
Better cardinality estimates ⇒ fewer candidates ⇒ faster queries, which is
what Fig. 13/14 measure.

The allocation DP needs the estimate for *every* per-part threshold
``t = 0..budget`` — exactly one cardinality curve per part.  Estimators
therefore implement :meth:`PartCardinalityEstimator.part_curves`, which
fetches each part's whole curve in one batched call per plan enumeration.

This module plans; it does not execute.  A plan runs the way the engine's
executor runs it: ``selector.verified_candidates(record, θ,
allocation=plan.allocation)``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..distances.base import integer_radius
from ..selection.hamming_index import PigeonholeHammingSelector


class PartCardinalityEstimator(ABC):
    """The estimate source of the allocation DP: one curve per part."""

    @abstractmethod
    def part_curves(
        self, part_queries: Sequence[np.ndarray], limits: Sequence[int]
    ) -> List[np.ndarray]:
        """One cardinality curve per part: ``curves[p][t]`` estimates part ``p``
        at per-part threshold ``t`` for ``t = 0..limits[p]``."""


@dataclass
class GPHPlan:
    """Inspectable GPH plan: the allocation the DP chose and its estimated cost."""

    threshold: int
    allocation: List[int]
    estimated_candidates: float
    allocation_seconds: float = 0.0


class GPHQueryProcessor:
    """Pigeonhole multi-index + estimator-driven threshold allocation."""

    def __init__(
        self,
        dataset_records: Sequence = (),
        part_size: int = 16,
        selector: Optional[PigeonholeHammingSelector] = None,
    ) -> None:
        """``selector`` lets callers that already hold a pigeonhole index (the
        engine's attribute catalog) reuse it instead of rebuilding one."""
        if selector is None:
            selector = PigeonholeHammingSelector(dataset_records, part_size=part_size)
        elif selector.parts:
            part_size = selector.parts[0][1] - selector.parts[0][0]
        self.selector = selector
        self.part_size = part_size

    @property
    def num_parts(self) -> int:
        return len(self.selector.parts)

    def part_query(self, record: np.ndarray, part_index: int) -> np.ndarray:
        start, stop = self.selector.parts[part_index]
        return np.asarray(record, dtype=np.uint8)[start:stop]

    # ------------------------------------------------------------------ #
    # Threshold allocation
    # ------------------------------------------------------------------ #
    def allocation_budget(self, threshold: int) -> int:
        """Minimum total per-part threshold required by the pigeonhole principle."""
        return max(0, integer_radius(threshold) - self.num_parts + 1)

    def plan(
        self,
        record: np.ndarray,
        threshold: int,
        estimator: PartCardinalityEstimator,
    ) -> GPHPlan:
        """Dynamic-programming allocation minimizing the estimated candidate count.

        ``cost[p][b]`` is the minimum estimated candidates using the first ``p``
        parts with a remaining budget of ``b``; part ``p`` may take any
        ``t ∈ [0, min(b, part width)]`` at cost ``curve_p[t]``.  The per-part
        curves are fetched in one batched request per plan enumeration
        (``estimator.part_curves``) rather than one scalar estimate per
        (part, threshold) pair.  The returned plan carries the allocation AND
        the DP's estimated candidate count, so executors and feedback monitors
        can compare the estimate against the observed cost.
        """
        allocation_start = time.perf_counter()
        record = np.asarray(record, dtype=np.uint8)
        num_parts = self.num_parts
        budget = self.allocation_budget(threshold)

        # Whole cardinality curve per (part, per-part threshold), batched.
        part_queries = [self.part_query(record, p) for p in range(num_parts)]
        limits = [min(stop - start, budget) for start, stop in self.selector.parts]
        estimates = estimator.part_curves(part_queries, limits)

        infinity = float("inf")
        cost = np.full((num_parts + 1, budget + 1), infinity)
        choice = np.zeros((num_parts + 1, budget + 1), dtype=np.int64)
        cost[0, budget] = 0.0
        for part_index in range(num_parts):
            for remaining in range(budget + 1):
                if cost[part_index, remaining] == infinity:
                    continue
                max_t = min(len(estimates[part_index]) - 1, remaining)
                for t in range(max_t + 1):
                    new_remaining = remaining - t
                    candidate_cost = cost[part_index, remaining] + estimates[part_index][t]
                    if candidate_cost < cost[part_index + 1, new_remaining]:
                        cost[part_index + 1, new_remaining] = candidate_cost
                        choice[part_index + 1, new_remaining] = t

        # The DP must end with the full budget spent (remaining == 0); spending
        # more than the minimum only adds candidates, so remaining 0 is optimal
        # whenever reachable.  It is not only when the budget exceeds the sum
        # of the part widths (θ past the dimension); the smallest reachable
        # remainder then gives every part its full width, so every row collides.
        final_remaining = 0
        if cost[num_parts, 0] == infinity:
            final_remaining = int(np.nonzero(cost[num_parts] < infinity)[0][0])

        allocation = [0] * num_parts
        remaining = final_remaining
        for part_index in range(num_parts, 0, -1):
            t = int(choice[part_index, remaining])
            allocation[part_index - 1] = t
            remaining += t
        estimated = float(cost[num_parts, final_remaining])
        return GPHPlan(
            threshold=integer_radius(threshold),
            allocation=allocation,
            estimated_candidates=estimated if np.isfinite(estimated) else 0.0,
            allocation_seconds=time.perf_counter() - allocation_start,
        )


# --------------------------------------------------------------------------- #
# Ready-made per-part estimators for the benchmark comparison
# --------------------------------------------------------------------------- #
class ExactPartCardinalities(PartCardinalityEstimator):
    """Oracle: exact per-part cardinalities (scan of the part columns)."""

    def __init__(self, processor: GPHQueryProcessor, dataset_records: Sequence) -> None:
        self._matrix = np.asarray(dataset_records, dtype=np.uint8)
        self._parts = processor.selector.parts

    def _part_distances(self, part_index: int, part_bits: np.ndarray) -> np.ndarray:
        start, stop = self._parts[part_index]
        return np.count_nonzero(self._matrix[:, start:stop] != part_bits[None, :], axis=1)

    def part_curves(
        self, part_queries: Sequence[np.ndarray], limits: Sequence[int]
    ) -> List[np.ndarray]:
        """One column scan per part answers every per-part threshold at once."""
        curves = []
        for part_index, (part_bits, limit) in enumerate(zip(part_queries, limits)):
            distances = self._part_distances(part_index, part_bits)
            counts = np.bincount(np.minimum(distances, limit + 1), minlength=limit + 2)
            curves.append(np.cumsum(counts[: limit + 1]).astype(np.float64))
        return curves


class MeanPartCardinalities(PartCardinalityEstimator):
    """Naive: query-independent mean cardinality per (part, threshold)."""

    def __init__(self, processor: GPHQueryProcessor, dataset_records: Sequence) -> None:
        from scipy.stats import binom

        matrix = np.asarray(dataset_records, dtype=np.uint8)
        num_records = matrix.shape[0]
        self._tables: List[np.ndarray] = []
        for start, stop in processor.selector.parts:
            width = stop - start
            # Expected count under a "random query" model: use the dataset's own
            # records as queries and average the distance distribution.
            # Mean-field approximation: bit b differs with probability
            # 2·p_b·(1 - p_b); the total distance is approximated by a binomial.
            ones_fraction = matrix[:, start:stop].mean(axis=0)
            diff_probability = float(np.mean(2.0 * ones_fraction * (1.0 - ones_fraction)))
            expected_distribution = binom.pmf(np.arange(width + 1), width, diff_probability)
            self._tables.append(np.cumsum(expected_distribution) * num_records)

    def part_curves(
        self, part_queries: Sequence[np.ndarray], limits: Sequence[int]
    ) -> List[np.ndarray]:
        """Query-independent: the curves are precomputed table prefixes."""
        curves = []
        for part_index, limit in enumerate(limits):
            table = self._tables[part_index]
            columns = np.minimum(np.arange(limit + 1), len(table) - 1)
            curves.append(table[columns])
        return curves


class ModelPartCardinalities(PartCardinalityEstimator):
    """Adapter: one CardinalityEstimator per part (CardNet-A models, or the DB
    histogram applied to each part independently via :meth:`histograms`)."""

    def __init__(self, processor: GPHQueryProcessor, estimators: Sequence) -> None:
        estimators = list(estimators)
        if len(estimators) != processor.num_parts:
            raise ValueError(
                f"expected {processor.num_parts} per-part estimators, got {len(estimators)}"
            )
        self._estimators = estimators

    @classmethod
    def histograms(
        cls, processor: GPHQueryProcessor, dataset_records: Sequence, group_size: int = 8
    ) -> "ModelPartCardinalities":
        """The Histogram policy: one ``HistogramHammingEstimator`` per part."""
        from ..baselines.db_specialized import HistogramHammingEstimator

        matrix = np.asarray(dataset_records, dtype=np.uint8)
        return cls(
            processor,
            [
                HistogramHammingEstimator(matrix[:, start:stop], group_size=group_size)
                for start, stop in processor.selector.parts
            ],
        )

    def part_curves(
        self, part_queries: Sequence[np.ndarray], limits: Sequence[int]
    ) -> List[np.ndarray]:
        """One curve-batched call per part-model instead of ``limit+1`` scalars."""
        return [
            np.asarray(
                self._estimators[part_index].estimate_curve_many(
                    [part_bits], np.arange(limit + 1, dtype=np.float64)
                )[0],
                dtype=np.float64,
            )
            for part_index, (part_bits, limit) in enumerate(zip(part_queries, limits))
        ]
