"""Linear-scan selection: the reference implementation every index is tested against."""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from ..distances.base import DistanceFunction, within
from .base import SimilaritySelector
from .delta import DeltaIndexMixin


class LinearScanSelector(DeltaIndexMixin, SimilaritySelector):
    """Evaluate the distance to every record; correct for any distance function.

    Delta maintenance rides the shared mixin with its default hooks: the
    store is a record list and there is no index, so queries run over the
    live records gathered from it — every query is O(n) in distance
    evaluations regardless.
    """

    def __init__(self, dataset: Sequence, distance: DistanceFunction) -> None:
        self._phys_records = list(dataset)
        self.distance = distance
        self._init_delta(len(self._phys_records))

    def query(self, record: Any, threshold: float) -> List[int]:
        distances = self.distance.distances_to(record, self.dataset)
        matches = np.nonzero(within(distances, threshold))[0]
        return [int(i) for i in matches]

    def cardinality(self, record: Any, threshold: float) -> int:
        distances = self.distance.distances_to(record, self.dataset)
        return int(np.count_nonzero(within(distances, threshold)))

    def cardinality_curve(self, record: Any, thresholds) -> np.ndarray:
        """One distance vector answers every threshold."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.size == 0:
            return np.zeros(0, dtype=np.int64)
        distances = self.distance.distances_to(record, self.dataset)
        return np.count_nonzero(
            within(distances[None, :], thresholds[:, None]), axis=1
        ).astype(np.int64)

    def rebuild(self, dataset: Sequence) -> "LinearScanSelector":
        return LinearScanSelector(dataset, self.distance)
