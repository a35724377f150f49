"""Jaccard distance on sets of tokens."""

from __future__ import annotations

import itertools
from typing import FrozenSet, Sequence, Set, Union

import numpy as np

from .base import DistanceFunction

SetLike = Union[Set[int], FrozenSet[int], Sequence[int]]


def as_frozenset(record: SetLike) -> FrozenSet[int]:
    """Normalize a record to a frozenset of hashable tokens."""
    if isinstance(record, frozenset):
        return record
    return frozenset(record)


def jaccard_similarity(x: SetLike, y: SetLike) -> float:
    """|x ∩ y| / |x ∪ y| with the convention that two empty sets are identical."""
    set_x = as_frozenset(x)
    set_y = as_frozenset(y)
    if not set_x and not set_y:
        return 1.0
    intersection = len(set_x & set_y)
    union = len(set_x) + len(set_y) - intersection
    return intersection / union


class JaccardDistance(DistanceFunction):
    """1 - Jaccard similarity, the distance form used throughout the paper (§4.3)."""

    name = "jaccard"
    integer_valued = False

    def distance(self, x: SetLike, y: SetLike) -> float:
        return 1.0 - jaccard_similarity(x, y)

    def distances_to(self, x: SetLike, dataset: Sequence[SetLike]) -> np.ndarray:
        """One :meth:`pair_distances` pass with ``x`` owning every row;
        ``cross_distances`` is one such row per query (the base default)."""
        return self.pair_distances([x], dataset)

    def pair_distances(
        self, queries: Sequence[SetLike], rows: Sequence[SetLike], owners=None
    ) -> np.ndarray:
        """Exact intersections by C-level set operations, one per pair: the
        same integers :func:`jaccard_similarity` divides, so the same floats."""
        sets = list(map(as_frozenset, queries))
        rows = list(map(as_frozenset, rows))
        if owners is None:
            left, sizes = itertools.repeat(sets[0], len(rows)), len(sets[0])
        else:
            owners = np.asarray(owners, dtype=np.int64)
            left = [sets[owner] for owner in owners.tolist()]
            sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))[owners]
        intersection = np.fromiter(
            map(len, map(frozenset.intersection, left, rows)), dtype=np.int64, count=len(rows)
        )
        union = sizes + np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        union -= intersection
        similarity = np.divide(intersection, union, out=np.ones(len(rows)), where=union > 0)
        return 1.0 - similarity
