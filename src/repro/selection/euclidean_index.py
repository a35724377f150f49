"""Exact Euclidean-distance selection via a ball-partition (cover-tree-like) index.

The paper uses a cover tree for the conjunctive-query case study.  Here the
dataset is partitioned into balls around pivot points (a light-weight
approximation of a one-level cover tree).  Stored, over *physical* rows:
``_matrix`` (float64 rows, the one copy of them, which ``rows_at`` reads),
``_pivots`` and ``_radii`` (one per ball), and ``_members`` (one ascending
row-id array per ball).

A probe is a fixed number of array passes, its only Python loop running over
the balls that survive pruning:

* triangle-inequality prune, one ``np.flatnonzero`` over all pivots: a ball is
  kept when ``|query - pivot| - radius <= θ`` (no member of any other ball can
  be within θ);
* one concatenate of the surviving balls' member arrays, one tombstone mask;
* one gathered distance pass over those rows — the exact predicate — and one
  sort of the matches into ascending id order.

Under updates the pivots are frozen: an insert appends the new rows to the
matrix and their ids to the ball of their nearest existing pivot (growing its
radius as needed); deletes tombstone rows without shrinking radii — a
conservative prune bound, never a wrong one, since every surviving row is
verified exactly.  Compaction re-picks pivots from scratch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..distances.base import within
from ..distances.euclidean import EuclideanDistance
from .base import SimilaritySelector
from .delta import DeltaIndexMixin, GrowableArray


class BallIndexEuclideanSelector(DeltaIndexMixin, SimilaritySelector):
    """Pivot/ball partition index with triangle-inequality pruning."""

    distance = EuclideanDistance()

    def __init__(self, dataset: Sequence, num_pivots: int = 16, seed: int = 0) -> None:
        matrix = np.asarray(dataset, dtype=np.float64)
        if matrix.ndim != 2 and matrix.size == 0:
            matrix = np.zeros((0, 0))  # no rows, no dimension: the next insert re-derives it
        self._matrix = GrowableArray(matrix)
        rng = np.random.default_rng(seed)
        num_records = len(matrix)
        num_pivots = min(num_pivots, max(1, num_records))
        if num_records:
            pivot_ids = rng.choice(num_records, size=num_pivots, replace=False)
            self._pivots = matrix[pivot_ids]
            # Assign each record to its nearest pivot.
            distances = np.linalg.norm(
                matrix[:, None, :] - self._pivots[None, :, :], axis=2
            )
            assignments = distances.argmin(axis=1)
            self._radii = np.zeros(num_pivots)
            self._members: List[GrowableArray] = []
            for pivot_id in range(num_pivots):
                member_ids = np.nonzero(assignments == pivot_id)[0].astype(np.int64)
                self._members.append(GrowableArray(member_ids))
                if member_ids.size:
                    self._radii[pivot_id] = distances[member_ids, pivot_id].max()
        else:
            self._pivots = np.zeros((0, matrix.shape[1]))
            self._members = []
            self._radii = np.zeros(0)
        self._init_delta(num_records)

    def _probe(self, record, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """(ascending logical ids, their exact distances) within ``threshold``."""
        empty = np.zeros(0, dtype=np.int64), np.zeros(0)
        if len(self) == 0:
            return empty
        query = np.asarray(record, dtype=np.float64)
        # Every member is within radii[pivot] of its pivot, so the closest any
        # member can be to the query is pivot_distance - radius.
        pivot_distances = np.linalg.norm(self._pivots - query[None, :], axis=1)
        balls = np.flatnonzero(within(pivot_distances - self._radii, threshold))
        if balls.size == 0:
            return empty
        rows = np.concatenate([self._members[ball].view() for ball in balls])
        if not self._view.is_compact:
            rows = rows[self._view.alive_rows[rows]]
        deltas = np.take(self._matrix.view(), rows, axis=0)
        deltas -= query
        distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        keep = np.flatnonzero(within(distances, threshold))
        keep = keep[np.argsort(rows[keep])]
        return self._view.to_logical(rows[keep]), distances[keep]

    def query(self, record, threshold: float) -> List[int]:
        return self._probe(record, threshold)[0].tolist()

    def _match_distances(self, record, threshold: float) -> np.ndarray:
        return self._probe(record, threshold)[1]

    def rebuild(self, dataset: Sequence) -> "BallIndexEuclideanSelector":
        return BallIndexEuclideanSelector(dataset, num_pivots=len(self._pivots) or 16)

    # ------------------------------------------------------------------ #
    # Delta maintenance hooks
    # ------------------------------------------------------------------ #
    def _normalize_record(self, record) -> np.ndarray:
        return np.asarray(record, dtype=np.float64)

    def _gather(self, physical_ids: np.ndarray) -> np.ndarray:
        return self._matrix.view()[physical_ids]

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        block = np.stack(records)
        if block.shape[1] != self._pivots.shape[1]:
            raise ValueError(
                f"inserted records have {block.shape[1]} dimensions, "
                f"index has {self._pivots.shape[1]}"
            )
        self._matrix.append(block)
        distances = np.linalg.norm(block[:, None, :] - self._pivots[None, :, :], axis=2)
        nearest = distances.argmin(axis=1)
        for pivot_id in np.unique(nearest):
            in_ball = nearest == pivot_id
            self._members[int(pivot_id)].append(physical_ids[in_ball])
            self._radii[int(pivot_id)] = max(
                self._radii[int(pivot_id)], float(distances[in_ball, pivot_id].max())
            )
