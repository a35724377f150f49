"""Distance functions used by the paper: Hamming, edit, Jaccard, Euclidean."""

from .base import THETA_SLACK, DistanceFunction, integer_radius, within
from .edit import EditDistance, batch_levenshtein, levenshtein
from .euclidean import EuclideanDistance, normalize_rows
from .hamming import (
    HammingDistance,
    pack_bits,
    packed_hamming_distances,
    unpack_bits,
)
from .jaccard import JaccardDistance, as_frozenset, jaccard_similarity

__all__ = [
    "DistanceFunction",
    "THETA_SLACK",
    "within",
    "integer_radius",
    "HammingDistance",
    "EditDistance",
    "JaccardDistance",
    "EuclideanDistance",
    "pack_bits",
    "unpack_bits",
    "packed_hamming_distances",
    "levenshtein",
    "batch_levenshtein",
    "jaccard_similarity",
    "as_frozenset",
    "normalize_rows",
]


def get_distance(name: str) -> DistanceFunction:
    """Factory: resolve a distance function by its short name."""
    registry = {
        "hamming": HammingDistance,
        "edit": EditDistance,
        "jaccard": JaccardDistance,
        "euclidean": EuclideanDistance,
    }
    try:
        return registry[name]()
    except KeyError as error:
        raise KeyError(f"unknown distance function: {name!r}; options: {sorted(registry)}") from error
