"""Live resharding: split and merge shards while the old layout serves.

A :class:`RebalancePlan` describes layout surgery against a base
:class:`~repro.sharding.partitioner.ShardAssignment` — split a hot shard,
merge cold shards — and resolves to a concrete new assignment plus, per new
shard, the base shard it is an exact copy of (if any).  :func:`suggest_plan`
derives a plan from the per-shard sizes.

A rebalance is two steps on the caller's thread:

1. :func:`stage` captures the selector's layout, resolves the plan against it
   and builds only the *changed* target shards, each by shard 0's ``rebuild``
   over the base rows it holds; unchanged shards are aliased — zero build
   cost, zero extra memory.  Staging touches nothing live, so dropping a
   staging is the abort.
2. :meth:`~repro.sharding.ShardedSelector.swap_layout` swaps the staged layout
   in atomically, or raises :class:`~repro.sharding.StaleRebalanceError` if an
   update landed since the capture — the old layout keeps serving and the
   plan is staged again.

:func:`rebalance` is the two in one call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..selection.base import SimilaritySelector
from .partitioner import ShardAssignment
from .selector import ShardedSelector


# --------------------------------------------------------------------------- #
# Plan actions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SplitShard:
    """Split one (hot) shard into ``parts`` shards of contiguous id chunks."""

    shard_id: int
    parts: int = 2

    def __post_init__(self) -> None:
        if self.parts < 2:
            raise ValueError(f"a split needs parts >= 2, got {self.parts}")


@dataclass(frozen=True)
class MergeShards:
    """Merge two or more (cold) shards into the lowest-numbered of them."""

    shard_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.shard_ids)
        if len(ids) < 2:
            raise ValueError("a merge needs at least two shards")
        if len(set(ids)) != len(ids):
            raise ValueError(f"merge lists shard(s) twice: {ids}")
        object.__setattr__(self, "shard_ids", ids)


RebalanceAction = Union[SplitShard, MergeShards]


@dataclass
class ResolvedPlan:
    """A plan applied to a concrete base assignment (nothing executed yet)."""

    #: New shard id per base global id (base record order is preserved).
    shard_of: np.ndarray
    num_shards: int
    #: Per new shard: the base shard it is an *exact copy* of (alias
    #: candidate), or ``None`` when its record set changed and it must be
    #: (re)built from a base slice.
    sources: Dict[int, Optional[int]]

    @property
    def build_targets(self) -> List[int]:
        return sorted(t for t, s in self.sources.items() if s is None)

    @property
    def aliased(self) -> Dict[int, int]:
        return {t: s for t, s in self.sources.items() if s is not None}


@dataclass
class RebalancePlan:
    """An ordered set of layout actions, validated as a whole at resolve."""

    actions: List[RebalanceAction] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.actions = list(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def describe(self) -> List[str]:
        return [repr(action) for action in self.actions]

    def resolve(self, assignment: ShardAssignment) -> ResolvedPlan:
        """Apply the actions to a base assignment; raises on conflicts.

        Validation is strict because a rebalance is expensive and a silently
        dropped action would leave a hot shard hot: every base shard may be
        named by at most one action (a record can only move once).
        """
        base_shards = assignment.num_shards
        named: Dict[int, RebalanceAction] = {}

        def claim(shard_id: int, action: RebalanceAction) -> None:
            shard_id = int(shard_id)
            if not 0 <= shard_id < base_shards:
                raise ValueError(
                    f"{action!r} references shard {shard_id}; the layout has "
                    f"{base_shards} shards"
                )
            if shard_id in named:
                raise ValueError(
                    f"shard {shard_id} is referenced by both {named[shard_id]!r} "
                    f"and {action!r}; each shard may move at most once per plan"
                )
            named[shard_id] = action

        # Working copy in *base* shard numbering, with split chunks assigned
        # provisional ids past the base range; renumbered at the end.
        shard_of = np.array(assignment.shard_of, dtype=np.int64, copy=True)
        next_provisional = base_shards
        freed: set = set()
        for action in self.actions:
            if isinstance(action, SplitShard):
                claim(action.shard_id, action)
                ids = assignment.global_ids[action.shard_id]
                chunks = np.array_split(ids, action.parts)
                # Chunk 0 stays on the split shard's id; later chunks get
                # provisional ids appended after every surviving base shard.
                for chunk in chunks[1:]:
                    shard_of[chunk] = next_provisional
                    next_provisional += 1
            else:
                target = min(action.shard_ids)
                for shard_id in action.shard_ids:
                    claim(shard_id, action)
                    if shard_id != target:
                        shard_of[assignment.global_ids[shard_id]] = target
                        freed.add(shard_id)

        # Renumber: surviving base ids keep their relative order, then the
        # provisional split chunks in creation order.  Merged-away ids free
        # their slot (the layout shrinks).
        survivors = [s for s in range(base_shards) if s not in freed]
        provisional = list(range(base_shards, next_provisional))
        renumber = {old: new for new, old in enumerate(survivors + provisional)}
        lookup = np.zeros(next_provisional, dtype=np.int64)
        lookup[list(renumber)] = list(renumber.values())
        shard_of = lookup[shard_of]
        num_shards = len(renumber)
        sources: Dict[int, Optional[int]] = {}
        for old, new in renumber.items():
            if old < base_shards and old not in named:
                sources[new] = old  # exact copy of an untouched base shard
            else:
                sources[new] = None
        return ResolvedPlan(shard_of=shard_of, num_shards=num_shards, sources=sources)


#: A shard larger than this multiple of the mean shard size is hot.
HOT_FACTOR = 2.0
#: A shard smaller than this multiple of the mean shard size is cold.
COLD_FACTOR = 0.25


def suggest_plan(assignment: ShardAssignment) -> Optional[RebalancePlan]:
    """Derive a plan from per-shard sizes.

    A shard is *hot* when its size exceeds :data:`HOT_FACTOR` × the mean
    shard size (and it holds at least two rows); hot shards are split in two.
    Shards smaller than :data:`COLD_FACTOR` × the mean are merged.  Returns
    ``None`` when the layout is already balanced.
    """
    sizes = np.asarray(assignment.shard_sizes(), dtype=np.float64)
    if sizes.size < 1 or sizes.sum() == 0:
        return None
    mean = float(sizes.mean())
    actions: List[RebalanceAction] = []
    hot = [s for s in range(len(sizes)) if sizes[s] > HOT_FACTOR * mean and sizes[s] >= 2]
    for shard_id in hot:
        actions.append(SplitShard(shard_id, parts=2))
    cold = [
        s
        for s in range(len(sizes))
        if s not in hot and sizes[s] < COLD_FACTOR * mean
    ]
    if len(cold) >= 2:
        actions.append(MergeShards(tuple(cold)))
    return RebalancePlan(actions) if actions else None


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
@dataclass
class RebalanceReport:
    num_shards_before: int
    num_shards_after: int
    built_targets: List[int]
    aliased_targets: Dict[int, int]
    moved_records: int
    seconds: float


@dataclass
class StagedLayout:
    """A resolved plan with its changed shards built; the live layout is
    untouched until :meth:`~repro.sharding.ShardedSelector.swap_layout`."""

    #: The selector's :attr:`~repro.sharding.ShardedSelector.mutation_count`
    #: at capture; the swap refuses once an update has moved it.
    mutation_count: int
    #: Per built target: its rows in local order, captured from the base
    #: layout (an aliased target needs none).
    rows: Dict[int, Sequence]
    num_shards_before: int
    resolved: ResolvedPlan
    assignment: ShardAssignment
    started: float
    #: One selector per new shard: built, or the aliased base shard.
    shards: List[SimilaritySelector] = field(default_factory=list)

    def shard_records(self, target: int) -> List:
        """The base rows built shard ``target`` holds, in its local order."""
        return list(self.rows[target])

    def report(self) -> RebalanceReport:
        built = self.resolved.build_targets
        return RebalanceReport(
            num_shards_before=self.num_shards_before,
            num_shards_after=self.resolved.num_shards,
            built_targets=built,
            aliased_targets=self.resolved.aliased,
            moved_records=int(sum(len(self.assignment.global_ids[t]) for t in built)),
            seconds=time.perf_counter() - self.started,
        )


def stage(selector: ShardedSelector, plan: RebalancePlan) -> StagedLayout:
    """Resolve ``plan`` against the selector's current layout and build the
    changed target shards; the old layout keeps serving throughout.  Only
    the built targets' rows are read, from the shards that hold them."""
    started = time.perf_counter()
    with selector._lock:  # one consistent capture: count, layout, rows
        mutation_count = selector.mutation_count
        base, base_shards = selector.assignment, selector.shards
        resolved = plan.resolve(base)
        assignment = ShardAssignment.from_shard_of(resolved.shard_of, resolved.num_shards)
        rows = {
            target: selector.rows_at(assignment.global_ids[target])
            for target in resolved.build_targets
        }
    staged = StagedLayout(
        mutation_count=mutation_count,
        rows=rows,
        num_shards_before=base.num_shards,
        resolved=resolved,
        assignment=assignment,
        started=started,
    )
    staged.shards = [
        base_shards[0].rebuild(staged.shard_records(target))
        if source is None else base_shards[source]
        for target, source in sorted(resolved.sources.items())
    ]
    return staged


def rebalance(selector: ShardedSelector, plan: RebalancePlan) -> RebalanceReport:
    """Stage ``plan`` and swap it in.  On any failure the live layout — old,
    and current — keeps serving."""
    staged = stage(selector, plan)
    selector.swap_layout(staged)
    return staged.report()

