"""Exact similarity-selection algorithms (label generation + Exact oracle)."""

from .base import SimilaritySelector
from .delta import (
    CompactionPolicy,
    DeltaIndexMixin,
    GrowableArray,
    TombstoneView,
    check_delete_positions,
    resolve_delete_positions,
)
from .edit_index import QGramEditSelector, qgrams
from .euclidean_index import BallIndexEuclideanSelector
from .hamming_index import (
    PackedHammingSelector,
    PigeonholeHammingSelector,
    split_dimensions,
)
from .jaccard_index import PrefixFilterJaccardSelector
from .linear_scan import LinearScanSelector

__all__ = [
    "SimilaritySelector",
    "CompactionPolicy",
    "DeltaIndexMixin",
    "GrowableArray",
    "TombstoneView",
    "check_delete_positions",
    "resolve_delete_positions",
    "LinearScanSelector",
    "PackedHammingSelector",
    "PigeonholeHammingSelector",
    "QGramEditSelector",
    "PrefixFilterJaccardSelector",
    "BallIndexEuclideanSelector",
    "split_dimensions",
    "qgrams",
]


def default_selector(distance_name: str, dataset) -> SimilaritySelector:
    """Build the fast exact selector appropriate for a distance function."""
    if distance_name == "hamming":
        return PackedHammingSelector(dataset)
    if distance_name == "edit":
        return QGramEditSelector(dataset)
    if distance_name == "jaccard":
        return PrefixFilterJaccardSelector(dataset)
    if distance_name == "euclidean":
        return BallIndexEuclideanSelector(dataset)
    raise KeyError(f"no selector registered for distance {distance_name!r}")
