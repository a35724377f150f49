"""Live resharding: split/merge/migrate shards while the old layout serves.

A :class:`RebalancePlan` describes layout surgery against a base
:class:`~repro.sharding.partitioner.ShardAssignment` — split a hot shard,
merge cold shards, migrate a global-id range — and resolves to a concrete new
assignment plus, per new shard, the base shard it is an exact copy of (if
any).  :func:`suggest_plan` derives a plan from the per-shard sizes.

The :class:`Rebalancer` executes a plan against a live
:class:`~repro.sharding.ShardedSelector` without stopping the world:

1. :meth:`~repro.sharding.ShardedSelector.begin_rebalance` captures the base
   layout and starts journaling updates; the old layout keeps serving
   queries *and updates* throughout.
2. Only the *changed* targets are built, each from the base rows it holds,
   one after another on the caller's thread; unchanged shards are aliased —
   zero build cost, zero extra memory.
3. :meth:`~repro.sharding.ShardedSelector.commit_rebalance` swaps the staged
   layout in atomically, replaying every journaled update first, so the new
   layout answers bit-identically to the old one.

Steps 1–2 are :meth:`Rebalancer.begin`, step 3 :meth:`Rebalancer.commit`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.metrics import current_registry
from ..selection.base import SimilaritySelector
from .partitioner import Partitioner, ShardAssignment
from .selector import ShardedSelector, ShardLayoutSnapshot


def _record_rebalance(outcome: str, seconds: float) -> None:
    registry = current_registry()
    registry.counter(
        "repro_rebalance_total", {"outcome": outcome},
        description="rebalance executions by outcome",
    ).inc()
    registry.histogram(
        "repro_rebalance_seconds", {"outcome": outcome},
        description="rebalance wall-time by outcome",
    ).observe(seconds)


def _record_rebalance_volume(moved_records: int, journal_replayed: int) -> None:
    registry = current_registry()
    if moved_records:
        registry.counter(
            "repro_rebalance_moved_records_total",
            description="records re-indexed into new shards by rebalances",
        ).inc(moved_records)
    if journal_replayed:
        registry.counter(
            "repro_rebalance_journal_replayed_total",
            description="journaled update operations replayed at rebalance commit",
        ).inc(journal_replayed)


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


@dataclass(frozen=True)
class MigrateRange:
    """Move the global-id range ``[start, stop)`` onto shard ``to_shard``."""

    start: int
    stop: int
    to_shard: int

    def __post_init__(self) -> None:
        if self.stop <= self.start or self.start < 0:
            raise ValueError(
                f"migrate range [{self.start}, {self.stop}) is empty or negative"
            )


RebalanceAction = Union[SplitShard, MergeShards, MigrateRange]


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
        named by at most one action (a record can only move once), migrate
        ranges must not overlap each other, and a migrated range must not
        drain records out of a shard another action is splitting or merging.
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

        migrations = [a for a in self.actions if isinstance(a, MigrateRange)]
        for index, migration in enumerate(migrations):
            if migration.stop > len(assignment):
                raise ValueError(
                    f"{migration!r} exceeds the {len(assignment)}-record layout"
                )
            for other in migrations[:index]:
                if migration.start < other.stop and other.start < migration.stop:
                    raise ValueError(
                        f"migrate ranges {other!r} and {migration!r} overlap"
                    )

        for action in self.actions:
            if isinstance(action, SplitShard):
                claim(action.shard_id, action)
            elif isinstance(action, MergeShards):
                for shard_id in action.shard_ids:
                    claim(shard_id, action)
            else:
                claim(action.to_shard, action)

        # Working copy in *base* shard numbering, with split chunks assigned
        # provisional ids past the base range; renumbered at the end.
        shard_of = np.array(assignment.shard_of, dtype=np.int64, copy=True)
        touched: set = set()
        next_provisional = base_shards
        freed: set = set()
        for action in self.actions:
            if isinstance(action, SplitShard):
                ids = assignment.global_ids[action.shard_id]
                chunks = np.array_split(ids, action.parts)
                touched.add(action.shard_id)
                # Chunk 0 stays on the split shard's id; later chunks get
                # provisional ids appended after every surviving base shard.
                for chunk in chunks[1:]:
                    shard_of[chunk] = next_provisional
                    next_provisional += 1
            elif isinstance(action, MergeShards):
                target = min(action.shard_ids)
                for shard_id in action.shard_ids:
                    touched.add(shard_id)
                    if shard_id != target:
                        shard_of[assignment.global_ids[shard_id]] = target
                        freed.add(shard_id)
            else:
                moved = np.arange(action.start, action.stop, dtype=np.int64)
                moved = moved[shard_of[moved] != action.to_shard]
                if moved.size == 0:
                    continue
                drained = {int(s) for s in np.unique(assignment.shard_of[moved])}
                for shard_id in drained:
                    conflict = named.get(shard_id)
                    if conflict is not None and conflict is not action:
                        raise ValueError(
                            f"{action!r} drains records out of shard {shard_id}, "
                            f"which {conflict!r} also moves"
                        )
                    touched.add(shard_id)
                touched.add(action.to_shard)
                shard_of[moved] = action.to_shard

        # Renumber: surviving base ids keep their relative order, then the
        # provisional split chunks in creation order.  Merged-away ids free
        # their slot (the layout shrinks).
        survivors = [s for s in range(base_shards) if s not in freed]
        provisional = list(range(base_shards, next_provisional))
        renumber = {old: new for new, old in enumerate(survivors + provisional)}
        shard_of = np.asarray([renumber[int(s)] for s in shard_of], dtype=np.int64)
        num_shards = len(renumber)
        sources: Dict[int, Optional[int]] = {}
        for old, new in renumber.items():
            if old < base_shards and old not in touched:
                sources[new] = old  # exact copy of an untouched base shard
            else:
                sources[new] = None
        return ResolvedPlan(shard_of=shard_of, num_shards=num_shards, sources=sources)


def suggest_plan(
    assignment: ShardAssignment,
    hot_factor: float = 2.0,
    cold_factor: float = 0.25,
) -> Optional[RebalancePlan]:
    """Derive a plan from per-shard sizes.

    A shard is *hot* when its size exceeds ``hot_factor ×`` the mean shard
    size (and it holds at least two rows); hot shards are split in two.
    Shards smaller than ``cold_factor ×`` the mean are merged.  Returns
    ``None`` when the layout is already balanced.
    """
    sizes = np.asarray(assignment.shard_sizes(), dtype=np.float64)
    if sizes.size < 1 or sizes.sum() == 0:
        return None
    mean = float(sizes.mean())
    actions: List[RebalanceAction] = []
    hot = [s for s in range(len(sizes)) if sizes[s] > hot_factor * mean and sizes[s] >= 2]
    for shard_id in hot:
        actions.append(SplitShard(shard_id, parts=2))
    cold = [
        s
        for s in range(len(sizes))
        if s not in hot and sizes[s] < cold_factor * mean
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
    journal_replayed: int
    seconds: float


@dataclass
class StagedRebalance:
    """A rebalance between :meth:`Rebalancer.begin` and its commit or abort:
    the new layout resolved and its changed shards built, the old one serving."""

    selector: ShardedSelector
    base: ShardLayoutSnapshot
    partitioner: Optional[Partitioner]
    resolved: Optional[ResolvedPlan] = None
    assignment: Optional[ShardAssignment] = None
    built: Dict[int, SimilaritySelector] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def shard_records(self, target: int) -> List:
        """The base rows new shard ``target`` holds, in its local order."""
        return [self.base.records[int(i)] for i in self.assignment.global_ids[target]]


class Rebalancer:
    """Executes :class:`RebalancePlan` s against live sharded selectors."""

    def execute(
        self,
        selector: ShardedSelector,
        plan: RebalancePlan,
        partitioner: Optional[Partitioner] = None,
    ) -> RebalanceReport:
        """Run one plan to completion: :meth:`begin` → :meth:`commit`.

        The selector keeps serving queries and absorbing updates on its old
        layout the whole time; mid-rebalance updates are journaled and
        replayed before the atomic swap.  On any failure the staging is
        aborted and the live (old, fully current) layout keeps serving.
        """
        staged = self.begin(selector, plan, partitioner)
        try:
            return self.commit(staged)
        except BaseException:
            self.abort(staged)
            raise

    def begin(
        self,
        selector: ShardedSelector,
        plan: RebalancePlan,
        partitioner: Optional[Partitioner] = None,
    ) -> StagedRebalance:
        """Start journaling, resolve ``plan`` against the captured base and
        build the changed target shards; a failure in here aborts the staging.
        A caller may stand between this and :meth:`commit` — the old layout
        serves and journals meanwhile — to build what else the new one needs."""
        staged = StagedRebalance(selector, selector.begin_rebalance(), partitioner)
        try:
            resolved = staged.resolved = plan.resolve(staged.base.assignment)
            staged.assignment = ShardAssignment.from_shard_of(
                resolved.shard_of, resolved.num_shards
            )
            if partitioner is None and resolved.num_shards != selector.num_shards:
                staged.partitioner = self._derive_partitioner(selector, resolved.num_shards)
            staged.built = self._build_targets(staged)
        except BaseException:
            self.abort(staged)
            raise
        return staged

    def commit(self, staged: StagedRebalance) -> RebalanceReport:
        """Swap the staged layout in atomically, replaying the journal; a
        refusal leaves the staging open for :meth:`abort`."""
        resolved, assignment = staged.resolved, staged.assignment
        replayed = staged.selector.commit_rebalance(
            staged.base,
            assignment,
            staged.built,
            aliased_sources=resolved.aliased,
            partitioner=staged.partitioner,
        )
        seconds = time.perf_counter() - staged.started
        moved = int(sum(len(assignment.global_ids[t]) for t in resolved.build_targets))
        _record_rebalance("committed", seconds)
        _record_rebalance_volume(moved, replayed)
        return RebalanceReport(
            num_shards_before=staged.base.assignment.num_shards,
            num_shards_after=resolved.num_shards,
            built_targets=resolved.build_targets,
            aliased_targets=resolved.aliased,
            moved_records=moved,
            journal_replayed=replayed,
            seconds=seconds,
        )

    def abort(self, staged: StagedRebalance) -> None:
        """Discard the staging; the live layout never stopped being current."""
        staged.selector.abort_rebalance()
        _record_rebalance("aborted", time.perf_counter() - staged.started)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_targets(staged: StagedRebalance) -> Dict[int, SimilaritySelector]:
        """Build the changed targets' selectors, each from the base rows it
        holds — aliased shards cost nothing."""
        factory = staged.selector.selector_factory
        return {
            target: factory(staged.shard_records(target))
            for target in staged.resolved.build_targets
        }

    @staticmethod
    def _derive_partitioner(selector: ShardedSelector, num_shards: int) -> Partitioner:
        """Same partitioner family, new shard count — for plans that change
        the layout width.  Custom partitioner types whose constructor is not
        ``(num_shards)`` must be passed explicitly to :meth:`execute`."""
        try:
            return type(selector.partitioner)(num_shards)
        except TypeError as error:
            raise ValueError(
                f"cannot derive a {type(selector.partitioner).__name__} for "
                f"{num_shards} shards; pass partitioner= to execute()"
            ) from error
