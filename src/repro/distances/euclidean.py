"""Euclidean (L2) distance on real-valued vectors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import DistanceFunction


class EuclideanDistance(DistanceFunction):
    """Standard L2 distance, evaluated with vectorized numpy kernels."""

    name = "euclidean"
    integer_valued = False

    def distance(self, x, y) -> float:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        return float(np.linalg.norm(x - y))

    def distances_to(self, x, dataset: Sequence) -> np.ndarray:
        return self.pair_distances([x], dataset)

    def pair_distances(self, queries: Sequence, rows: Sequence, owners=None) -> np.ndarray:
        """One subtraction and one row-wise ``einsum`` over every pair: the
        arithmetic of :meth:`distances_to`, which is this call with one query."""
        if len(rows) == 0:
            return np.zeros(0)
        data = np.asarray(rows, dtype=np.float64)
        if data.ndim != 2:
            data = np.stack([np.asarray(record, dtype=np.float64) for record in rows])
        if owners is None:
            other = np.asarray(queries[0], dtype=np.float64)[None, :]
        else:
            other = np.asarray(queries, dtype=np.float64)[owners]
        deltas = data - other
        return np.sqrt(np.einsum("ij,ij->i", deltas, deltas))

    def cross_distances(self, queries: Sequence, dataset: Sequence) -> np.ndarray:
        """(n_queries, n_records) distances: the rows converted once, then one
        :meth:`distances_to` row per query — the same arithmetic, so the same
        floats, as a per-query call."""
        data = np.asarray(dataset, dtype=np.float64)
        out = np.empty((len(queries), len(data)))
        for row, query in enumerate(queries):
            out[row] = self.distances_to(query, data)
        return out


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize each row (the paper normalizes GloVe vectors before use)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return matrix / norms
