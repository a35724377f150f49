"""Distance function interface.

The paper's framework is generic over a distance function ``f: O × O → R``
(§2.1).  Concrete distances (Hamming, edit, Jaccard, Euclidean) implement this
interface; exact selection algorithms, feature extraction, and workload label
generation all go through it.

Whether a distance lies within a threshold is decided here and nowhere else:
:func:`within` for a distance, :func:`integer_radius` for an index that
searches an integer radius.  Both add the one tolerance :data:`THETA_SLACK`,
so every index, the executor and the labels answer ``f(q, o) <= θ`` alike.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

#: Tolerance added to every threshold: ``d <= θ`` is decided as ``d <= θ + THETA_SLACK``.
THETA_SLACK = 1e-12


def within(distances, thetas):
    """``distances <= thetas + THETA_SLACK``, broadcast as the caller shapes them."""
    return distances <= np.add(thetas, THETA_SLACK)


def integer_radius(thetas):
    """The largest integer distance :func:`within` admits: ``floor(θ + THETA_SLACK)``.

    An ``int`` for a scalar (a non-finite θ raises, as ``int()`` does), an
    ``int64`` array for an array.
    """
    radius = np.floor(np.add(thetas, THETA_SLACK))
    return int(radius) if radius.ndim == 0 else radius.astype(np.int64)


class DistanceFunction(ABC):
    """A distance between two records of a given data type."""

    #: Short identifier used in reports and benchmark tables (e.g. ``"hamming"``).
    name: str = "abstract"

    #: Whether the distance takes only integer values (affects threshold handling).
    integer_valued: bool = False

    @abstractmethod
    def distance(self, x: Any, y: Any) -> float:
        """Distance between two records."""

    def distances_to(self, x: Any, dataset: Sequence[Any]) -> np.ndarray:
        """Vector of distances from query ``x`` to every record of ``dataset``.

        Subclasses override this with vectorized kernels; the default falls
        back to a per-record loop.
        """
        return np.array([self.distance(x, y) for y in dataset], dtype=np.float64)

    def cross_distances(self, queries: Sequence[Any], dataset: Sequence[Any]) -> np.ndarray:
        """(n_queries, n_records) matrix of distances.

        Row ``i`` equals ``distances_to(queries[i], dataset)`` exactly, for
        every distance, so a threshold decided on either agrees.  Subclasses
        override it only to share per-batch work (encoding the rows once);
        the default runs the per-query kernel row by row.
        """
        return np.stack([self.distances_to(query, dataset) for query in queries]) \
            if len(queries) else np.zeros((0, len(dataset)))

    def pair_distances(
        self, queries: Sequence[Any], rows: Sequence[Any], owners=None
    ) -> np.ndarray:
        """Distance from ``queries[owners[k]]`` to ``rows[k]``, for every ``k``.

        ``owners`` is ``None`` when one query owns every row.  Each value
        equals ``cross_distances([queries[owners[k]]], [rows[k]])`` bit for
        bit, so a residual verify decides alike whichever batch it ran in.
        Subclasses override it with one pass over every pair; the default
        runs one ``cross_distances`` row per distinct owner.
        """
        if owners is None:
            return self.cross_distances([queries[0]], rows)[0]
        owners = np.asarray(owners, dtype=np.int64)
        out = np.empty(len(owners))
        for owner in np.unique(owners).tolist():
            at = np.flatnonzero(owners == owner)
            part = rows[at] if isinstance(rows, np.ndarray) else [rows[i] for i in at.tolist()]
            out[at] = self.cross_distances([queries[owner]], part)[0]
        return out

    def __call__(self, x: Any, y: Any) -> float:
        return self.distance(x, y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
