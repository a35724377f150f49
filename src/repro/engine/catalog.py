"""Attribute catalog: everything the engine knows about the data it serves.

One :class:`AttributeBinding` per registered attribute bundles the physical
access paths the planner and executor need — the distance function, the exact
selection index, and the serving endpoint(s) answering cardinality estimates
for it.  A binding holds no rows: the index's store is the column, so an
update changes it once, as the index's own O(Δ) delta, and
``selector.rows_at`` reads it back from there.  The catalog
enforces the single table-shape invariant (every attribute has the same
record count, so record ids line up across predicates of one conjunctive
query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..distances import DistanceFunction, get_distance
from ..selection import PigeonholeHammingSelector, SimilaritySelector, default_selector


@dataclass(eq=False)
class AttributeBinding:
    """Physical metadata for one queryable attribute."""

    name: str
    distance: DistanceFunction
    selector: SimilaritySelector
    endpoint: str
    theta_max: float
    #: Per-part serving endpoints, present only for GPH-planned Hamming
    #: attributes (one endpoint per pigeonhole part).
    part_endpoints: List[str] = field(default_factory=list)
    #: Per-shard serving endpoints (``name#shardK``), present only for
    #: horizontally sharded attributes; ``endpoint`` is then the merged
    #: endpoint whose curves sum the shard estimators' curves.
    shard_endpoints: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.selector)

    @property
    def records(self) -> Sequence:
        """The whole column, read back from the index (an O(n) copy: for
        callers that want every row, never for a per-query path)."""
        return self.selector.dataset

    @property
    def uses_gph(self) -> bool:
        """Whether the planner allocates per-part thresholds for this attribute."""
        return bool(self.part_endpoints) and isinstance(
            self.selector, PigeonholeHammingSelector
        )

    @property
    def sharded(self) -> bool:
        """Whether this attribute executes by fan-out over per-shard indexes."""
        return bool(self.shard_endpoints)

    def units(self) -> List[Tuple[SimilaritySelector, str]]:
        """The attribute's maintenance units, ``(exact index, serving endpoint)``.

        One unit per shard of a sharded attribute; an unsharded attribute is
        the one-unit case — its own index and planning endpoint.
        """
        if self.sharded:
            return list(zip(self.selector.shards, self.shard_endpoints))
        return [(self.selector, self.endpoint)]


class AttributeCatalog:
    """Named attribute bindings with an aligned-length invariant."""

    def __init__(self) -> None:
        self._bindings: Dict[str, AttributeBinding] = {}

    def validate(self, name: str, records: Sequence) -> None:
        """Refuse what :meth:`add` would refuse — a taken name, no rows, rows
        misaligned with the table — without adding anything, so a caller can
        ask before it builds what the binding needs."""
        if name in self._bindings:
            raise KeyError(f"attribute {name!r} is already registered")
        if len(records) == 0:
            raise ValueError(f"attribute {name!r} has no records")
        for other in self._bindings.values():
            if len(other) != len(records):
                raise ValueError(
                    f"attribute {name!r} has {len(records)} records but "
                    f"{other.name!r} has {len(other)}; conjunctive queries "
                    "need aligned record ids across attributes"
                )

    def add(
        self,
        name: str,
        records: Sequence,
        distance_name: str,
        endpoint: str,
        theta_max: float,
        selector: Optional[SimilaritySelector] = None,
    ) -> AttributeBinding:
        self.validate(name, records)
        binding = AttributeBinding(
            name=name,
            distance=get_distance(distance_name),
            selector=selector if selector is not None else default_selector(distance_name, records),
            endpoint=endpoint,
            theta_max=float(theta_max),
        )
        self._bindings[name] = binding
        return binding

    def get(self, name: str) -> AttributeBinding:
        try:
            return self._bindings[name]
        except KeyError as error:
            raise KeyError(
                f"unknown attribute {name!r}; registered: {sorted(self._bindings)}"
            ) from error

    def names(self) -> List[str]:
        return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self):
        return iter(self._bindings.values())
