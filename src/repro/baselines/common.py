"""Shared helpers for baseline estimators.

The learned baselines (TL-* and DL-*) consume a numeric feature vector per
query plus the threshold.  Following the paper (§9.1.2), on Hamming and
Euclidean data they are fed the *original* vectors, while on edit-distance and
Jaccard data they are fed the same feature extraction as CardNet.
:class:`QueryFeaturizer` encapsulates that choice behind a single interface.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..datasets.synthetic import Dataset
from ..distances.base import THETA_SLACK
from ..featurization import build_feature_extractor
from ..featurization.base import FeatureExtractor
from ..workloads.examples import QueryExample


def raw_record_vector(record: Any) -> np.ndarray:
    """Flatten a Hamming/Euclidean record into a float feature vector.

    Module-level (rather than a closure inside ``for_dataset``) so featurizers
    built over raw vectors stay snapshottable by :mod:`repro.store`.
    """
    return np.asarray(record, dtype=np.float64).reshape(-1)


def counts_within_thresholds(distance_matrix: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Per-row counts of distances within each grid threshold: (rows, grid).

    Sorts each row once and answers the whole grid by binary search, so no
    (rows × grid × columns) boolean temporary is materialized — the shared
    curve kernel for distance-matrix estimators (sampling, sketches).
    Equivalent to ``count_nonzero(within(distances, theta))`` per cell.
    """
    sorted_rows = np.sort(distance_matrix, axis=1)
    thetas = np.asarray(thetas, dtype=np.float64)
    curves = np.empty((sorted_rows.shape[0], len(thetas)))
    for row, distances in enumerate(sorted_rows):
        curves[row] = np.searchsorted(distances, thetas + THETA_SLACK, side="right")
    return curves


class QueryFeaturizer:
    """Maps (record, θ) to the numeric inputs used by non-CardNet learned models."""

    def __init__(
        self,
        record_to_vector: Callable[[Any], np.ndarray],
        theta_max: float,
        dimension: int,
    ) -> None:
        self.record_to_vector = record_to_vector
        self.theta_max = float(theta_max)
        self.dimension = int(dimension)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        extractor: Optional[FeatureExtractor] = None,
        seed: int = 0,
    ) -> "QueryFeaturizer":
        """Raw vectors for HM/EU data; CardNet's feature extraction for ED/JC."""
        if dataset.distance_name in ("hamming", "euclidean"):
            dimension = int(dataset.extra.get("dimension", len(dataset.records[0])))
            return cls(raw_record_vector, dataset.theta_max, dimension)
        extractor = extractor or build_feature_extractor(dataset, seed=seed)
        return cls(extractor.transform_record, dataset.theta_max, extractor.dimension)

    # ------------------------------------------------------------------ #
    # Featurization
    # ------------------------------------------------------------------ #
    def record_vector(self, record: Any) -> np.ndarray:
        return np.asarray(self.record_to_vector(record), dtype=np.float64).reshape(-1)

    def normalized_theta(self, theta: float) -> float:
        if self.theta_max <= 0:
            return 0.0
        return float(np.clip(theta / self.theta_max, 0.0, 1.0))

    def normalized_thetas(self, thetas: Sequence[float]) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        if self.theta_max <= 0:
            return np.zeros_like(thetas)
        return np.clip(thetas / self.theta_max, 0.0, 1.0)

    def features(self, record: Any, theta: float) -> np.ndarray:
        """Concatenated [record vector ; normalized threshold]."""
        return np.concatenate([self.record_vector(record), [self.normalized_theta(theta)]])

    def record_matrix(self, records: Sequence[Any]) -> np.ndarray:
        return np.stack([self.record_vector(record) for record in records])

    def matrix_from(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """Batch feature matrix for parallel lists of records and thresholds."""
        return np.concatenate(
            [self.record_matrix(records), self.normalized_thetas(thetas)[:, None]], axis=1
        )

    def matrix(self, examples: Sequence[QueryExample]) -> np.ndarray:
        return self.matrix_from(
            [example.record for example in examples],
            [example.theta for example in examples],
        )

    def targets(self, examples: Sequence[QueryExample]) -> np.ndarray:
        return np.asarray([example.cardinality for example in examples], dtype=np.float64)

    @property
    def input_dimension(self) -> int:
        return self.dimension + 1
