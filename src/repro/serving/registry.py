"""Registry of estimators: many datasets and distance functions, one endpoint.

Each registered estimator carries everything the service needs to answer a
request without touching the caller's objects again: the estimator itself
and the canonical threshold grid its curves are materialized on (records are
cache-keyed by :func:`default_record_key`).  Registration is the only place
configuration happens; the serving hot path is pure lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.interface import CardinalityEstimator
from ..distances import get_distance

#: Grid points used when a registration supplies only ``theta_max``.
DEFAULT_CURVE_RESOLUTION = 65


def resolve_curve_grid(
    estimators: Sequence[CardinalityEstimator],
    curve_thetas: Optional[Sequence[float]] = None,
    theta_max: Optional[float] = None,
    distance_name: str = "",
) -> Tuple[np.ndarray, bool]:
    """The threshold grid ``estimators`` are served on, and whether it is
    their own canonical one — the one place a curve grid is decided.

    One estimator for an endpoint; one per shard for a sharded attribute,
    whose curves only sum on a shared grid.  In priority order: an explicit
    ``curve_thetas``; the estimators' canonical grid
    (:meth:`CardinalityEstimator.curve_thetas`, which must then be identical
    across all of them); given only ``theta_max``, the exact grid
    ``0..theta_max`` when ``distance_name`` names an integer-valued distance
    and otherwise :data:`DEFAULT_CURVE_RESOLUTION` uniform points over
    ``[0, theta_max]``.
    """
    canonical = False
    if curve_thetas is None:
        curve_thetas = estimators[0].curve_thetas()
        canonical = curve_thetas is not None
    if canonical:
        for position, estimator in enumerate(estimators[1:], start=1):
            other = estimator.curve_thetas()
            if other is None or not np.array_equal(other, curve_thetas):
                raise ValueError(
                    f"estimator {position} has a different canonical curve grid "
                    "than estimator 0; per-shard curves only sum on a shared "
                    "grid — pass an explicit curve_thetas"
                )
    elif curve_thetas is None:
        if theta_max is None:
            raise ValueError(
                "the estimator has no canonical curve grid; "
                "pass curve_thetas or theta_max"
            )
        try:
            integer_valued = get_distance(distance_name).integer_valued
        except KeyError:  # a name the library does not know is only a label
            integer_valued = False
        if integer_valued:
            curve_thetas = np.arange(int(theta_max) + 1)
        else:
            curve_thetas = np.linspace(0.0, float(theta_max), DEFAULT_CURVE_RESOLUTION)
    grid = np.asarray(curve_thetas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("curve_thetas must be a non-empty 1-D grid")
    if np.any(np.diff(grid) < 0):
        raise ValueError("curve_thetas must be non-decreasing")
    return grid, canonical


def default_record_key(record: Any) -> bytes:
    """Stable bytes key for the record types the library serves.

    Numpy vectors hash by dtype+shape+payload; strings by their UTF-8 bytes;
    sets by their sorted elements.  Anything else falls back to ``repr``.
    """
    if isinstance(record, np.ndarray):
        normalized = np.ascontiguousarray(record)
        header = f"{normalized.dtype.str}:{normalized.shape}".encode()
        return header + normalized.tobytes()
    if isinstance(record, str):
        return b"s:" + record.encode("utf-8")
    if isinstance(record, (set, frozenset)):
        return b"f:" + repr(tuple(sorted(record))).encode("utf-8")
    if isinstance(record, (list, tuple)):
        return default_record_key(np.asarray(record))
    return b"r:" + repr(record).encode("utf-8")


@dataclass
class RegisteredEstimator:
    """One serving endpoint: estimator + curve grid."""

    name: str
    estimator: CardinalityEstimator
    curve_thetas: np.ndarray
    distance_name: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: True when ``curve_thetas`` is the estimator's own canonical grid, in
    #: which case the service requests native curves (no grid re-indexing).
    canonical: bool = False

    def key_for(self, record: Any) -> bytes:
        return default_record_key(record)

    def registration(self) -> Tuple[str, CardinalityEstimator, Dict[str, Any]]:
        """``(name, estimator, options)`` that register this endpoint again as
        it stands — grid, ``canonical`` flag and all."""
        return self.name, self.estimator, {
            "curve_thetas": None if self.canonical else self.curve_thetas,
            "distance_name": self.distance_name,
            "metadata": self.metadata,
        }

    def curve_index(self, theta: float) -> int:
        """Column of the endpoint's curves that answers threshold ``theta``."""
        return self.estimator.curve_index(theta, self.curve_thetas)

    def curve_indices(self, thetas: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`curve_index` for a whole request batch."""
        return self.estimator.curve_indices(thetas, self.curve_thetas)


class EstimatorRegistry:
    """Named estimators behind one endpoint (one per dataset/distance/model)."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredEstimator] = {}

    def register(
        self,
        name: str,
        estimator: CardinalityEstimator,
        curve_thetas: Optional[Sequence[float]] = None,
        theta_max: Optional[float] = None,
        distance_name: str = "",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> RegisteredEstimator:
        """Register an estimator under ``name``, on the curve grid
        :func:`resolve_curve_grid` decides for it."""
        if name in self._entries:
            raise KeyError(f"estimator {name!r} is already registered")
        grid, canonical = resolve_curve_grid(
            [estimator], curve_thetas, theta_max, distance_name
        )
        entry = RegisteredEstimator(
            name=name,
            estimator=estimator,
            curve_thetas=grid,
            distance_name=distance_name,
            metadata=dict(metadata or {}),
            canonical=canonical,
        )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> RegisteredEstimator:
        try:
            return self._entries[name]
        except KeyError as error:
            raise KeyError(
                f"unknown estimator {name!r}; registered: {sorted(self._entries)}"
            ) from error

    def unregister(self, name: str) -> None:
        self.get(name)
        del self._entries[name]

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())
