"""Declarative query specs for the similarity query engine.

A query is what a caller *wants* — records within a distance threshold of a
probe, on one or more registered attributes — with no say in how it runs.
The planner (:mod:`repro.engine.planner`) turns a spec into an inspectable
:class:`~repro.engine.planner.QueryPlan`; the executor runs the plan.

``SimilarityPredicate`` is the atom: ``f(attribute[i], record) <= theta`` for
the attribute's distance function ``f``.  ``ConjunctiveQuery`` is a
conjunction of predicates over distinct attributes of one table (the paper's
§9.11.1 blocking-rule shape); a single-predicate query is the degenerate
conjunction, so every query takes the same path through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


@dataclass(eq=False)
class SimilarityPredicate:
    """One similarity selection: records whose ``attribute`` value is within
    ``theta`` of ``record`` under the attribute's distance function."""

    attribute: str
    record: Any
    theta: float

    def __post_init__(self) -> None:
        self.theta = float(self.theta)
        if not self.theta >= 0:  # also rejects NaN, which no index orders
            raise ValueError(f"theta must be non-negative, got {self.theta}")

    def __repr__(self) -> str:
        return f"SimilarityPredicate({self.attribute!r}, theta={self.theta:g})"


@dataclass(eq=False)
class ConjunctiveQuery:
    """A conjunction of similarity predicates over distinct attributes."""

    predicates: List[SimilarityPredicate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("a conjunctive query needs at least one predicate")
        attributes = [predicate.attribute for predicate in self.predicates]
        if len(set(attributes)) != len(attributes):
            raise ValueError(f"predicate attributes must be distinct, got {attributes}")

    @classmethod
    def single(cls, predicate: SimilarityPredicate) -> "ConjunctiveQuery":
        """The one-predicate query every plain similarity selection becomes."""
        return cls(predicates=[predicate])

    def attributes(self) -> List[str]:
        return [predicate.attribute for predicate in self.predicates]

    def __len__(self) -> int:
        return len(self.predicates)

    def __repr__(self) -> str:
        inner = " AND ".join(
            f"{predicate.attribute}<={predicate.theta:g}" for predicate in self.predicates
        )
        return f"ConjunctiveQuery({inner})"


def as_query(query: "ConjunctiveQuery | SimilarityPredicate") -> ConjunctiveQuery:
    """Accept a bare predicate anywhere a query is expected."""
    if isinstance(query, SimilarityPredicate):
        return ConjunctiveQuery.single(query)
    if isinstance(query, ConjunctiveQuery):
        return query
    raise TypeError(f"expected ConjunctiveQuery or SimilarityPredicate, got {type(query)!r}")


def as_queries(
    queries: Sequence["ConjunctiveQuery | SimilarityPredicate"],
) -> List[ConjunctiveQuery]:
    """Normalize a workload that may mix bare predicates and full queries."""
    return [as_query(query) for query in queries]
