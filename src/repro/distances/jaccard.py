"""Jaccard distance on sets of tokens."""

from __future__ import annotations

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

    def cross_distances(self, queries: Sequence[SetLike], dataset: Sequence[SetLike]) -> np.ndarray:
        """Pairwise Jaccard distances via a token-membership matrix product."""
        if len(queries) == 0:
            return np.zeros((0, len(dataset)))
        query_sets = [as_frozenset(record) for record in queries]
        data_sets = [as_frozenset(record) for record in dataset]
        vocabulary = {token: i for i, token in enumerate(set().union(*query_sets, *data_sets))}
        if not vocabulary:
            # All sets empty: every pair is identical by convention.
            return np.zeros((len(queries), len(dataset)))

        def membership(sets: Sequence[FrozenSet]) -> np.ndarray:
            matrix = np.zeros((len(sets), len(vocabulary)), dtype=np.float64)
            for row, tokens in enumerate(sets):
                for token in tokens:
                    matrix[row, vocabulary[token]] = 1.0
            return matrix

        query_matrix = membership(query_sets)
        data_matrix = membership(data_sets)
        intersection = query_matrix @ data_matrix.T
        sizes_q = query_matrix.sum(axis=1)[:, None]
        sizes_d = data_matrix.sum(axis=1)[None, :]
        union = sizes_q + sizes_d - intersection
        similarity = np.divide(
            intersection, union, out=np.ones_like(intersection), where=union > 0
        )
        return 1.0 - similarity
