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
        if len(dataset) == 0:
            return np.zeros(0)
        data = np.asarray(dataset, dtype=np.float64)
        if data.ndim != 2:
            data = np.stack([np.asarray(record, dtype=np.float64) for record in dataset])
        query = np.asarray(x, dtype=np.float64)
        deltas = data - query[None, :]
        return np.sqrt(np.einsum("ij,ij->i", deltas, deltas))

    #: Upper bound (bytes) on the per-block GEMM output of cross_distances.
    #: Bounds peak transient memory: the blocked loop writes each block's
    #: result in place, so the largest temp is one (block, n) float64 panel.
    BLOCK_BYTES = 1 << 24

    def cross_distances(self, queries: Sequence, dataset: Sequence) -> np.ndarray:
        """(n_queries, n_records) distances through the GEMM identity.

        Fast, but it rounds differently from :meth:`distances_to`: a record
        lying exactly on a threshold can fall on the other side of it.  A
        caller that must decide a threshold as the selectors do (workload
        labels) calls ``distances_to`` per query instead.
        """
        if len(queries) == 0:
            return np.zeros((0, len(dataset)))
        data = np.asarray(dataset, dtype=np.float64)
        if data.ndim != 2:
            data = np.stack([np.asarray(record, dtype=np.float64) for record in dataset])
        query_matrix = np.asarray(queries, dtype=np.float64)
        if query_matrix.ndim != 2:
            query_matrix = np.stack([np.asarray(record, dtype=np.float64) for record in queries])
        # ||q - d||^2 = ||q||^2 - 2 q·d + ||d||^2, clipped against fp
        # cancellation.  Computed in query blocks so the transient GEMM panel
        # stays cache-resident and peak memory is bounded by BLOCK_BYTES on
        # top of the (q, n) result, however large the inputs.
        num_queries, num_records = query_matrix.shape[0], data.shape[0]
        data_t = np.ascontiguousarray(data.T)
        data_norms = np.einsum("ij,ij->i", data, data)[None, :]
        out = np.empty((num_queries, num_records), dtype=np.float64)
        block = max(1, self.BLOCK_BYTES // max(1, num_records * 8))
        for start in range(0, num_queries, block):
            stop = min(start + block, num_queries)
            panel = out[start:stop]
            np.matmul(query_matrix[start:stop], data_t, out=panel)
            panel *= -2.0
            panel += np.einsum(
                "ij,ij->i", query_matrix[start:stop], query_matrix[start:stop]
            )[:, None]
            panel += data_norms
            np.maximum(panel, 0.0, out=panel)
            np.sqrt(panel, out=panel)
        return out


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize each row (the paper normalizes GloVe vectors before use)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return matrix / norms
