"""Exact similarity selection over horizontally sharded data.

:class:`ShardedSelector` partitions the dataset into shards (one inner
selector per shard, built by a caller-supplied factory) and answers every
query by fan-out + merge: each shard runs the exact selection on its slice
and the shard-local match ids are translated back to global record ids and
merged in ascending order.  Because every shard is exact and the merge loses
nothing, results are bit-identical to running the unsharded selector over the
full dataset, for any partitioning.

The shard tasks run as a loop on the calling thread.  Python threads take
turns on one interpreter lock, and the shard probes the workloads send cost
far less CPU than a thread hand-off could win back (the measured break-even
is ``docs/perf/pr-18/fan_out_break_even.json``), so there is no pool to pick.

Updates route the same way (§8 per shard, not globally): an insert/delete
expressed against *global* record ids is translated into one local operation
per touched shard (:meth:`ShardedSelector.route_operation`) and committed as
an O(Δ) in-place delta (:meth:`~repro.selection.SimilaritySelector.insert_many`
/ :meth:`~repro.selection.SimilaritySelector.delete_many`) on exactly those
shards — untouched shards keep their index, labels, model and served curves.

Live rebalancing rides the same machinery: :meth:`begin_rebalance` captures a
consistent base layout and starts journaling updates, the new layout is built
elsewhere (``repro.sharding.rebalance``) while the old one keeps serving, and
:meth:`commit_rebalance` swaps the staged shards in atomically after
replaying the journal — so the new layout answers exactly like the old one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.updates import UpdateOperation
from ..distances.base import DistanceFunction
from ..obs.metrics import current_registry, default_registry, use_registry
from ..obs.trace import span
from ..runtime import Runtime
from ..selection.base import SimilaritySelector
from ..selection.delta import resolve_delete_positions
from .partitioner import Partitioner, ShardAssignment, get_partitioner

#: Builds the exact selector for one shard's records.
SelectorFactory = Callable[[Sequence], SimilaritySelector]


def _record_shard_op(op: str, shard_id: int, seconds: float) -> None:
    """Count one shard task into the ambient registry (op + shard labelled).

    ``current_registry()`` is the registry :meth:`~repro.runtime.Runtime.run_inline`
    pushed around the fan-out — the engine's, when an engine owns the runtime.
    """
    labels = {"op": op, "shard": shard_id}
    registry = current_registry()
    registry.counter(
        "repro_shard_tasks_total", labels,
        description="shard fan-out tasks per op and shard",
    ).inc()
    registry.histogram(
        "repro_shard_task_seconds", labels,
        description="shard fan-out task wall-time per op and shard",
    ).observe(seconds)


@dataclass
class ShardRouting:
    """A global update translated into per-shard local operations.

    Produced by :meth:`ShardedSelector.route_operation` *before* anything is
    applied, so callers (the engine's update path) can hand each touched
    shard's local operation to that shard's update manager first, then commit
    with :meth:`ShardedSelector.apply_routed`.
    """

    operation: UpdateOperation
    #: Touched shard → the operation expressed in that shard's local ids
    #: (delete positions listed in descending local order).
    local_operations: Dict[int, UpdateOperation] = field(default_factory=dict)
    #: Shard id per global record id *after* the operation.
    new_shard_of: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def touched_shards(self) -> List[int]:
        return sorted(self.local_operations)


@dataclass
class ShardLayoutSnapshot:
    """The consistent base a rebalance builds from (:meth:`begin_rebalance`).

    ``versions`` pins each shard's :attr:`mutation_count` at capture time:
    shards are mutated *in place* by concurrent updates, so at commit a shard
    object may be aliased into the new layout only if its version is
    unchanged — otherwise the target is rebuilt from ``records`` (a list
    copy, immune to in-place shard mutation) and the journal replay restores
    the updates.
    """

    records: List
    assignment: ShardAssignment
    shards: List[SimilaritySelector]
    versions: List[int]


class _MergedIds(list):
    """The ascending global ids :meth:`ShardedSelector.query` promises — the
    plain list they always were — carrying the sorted int64 array they were
    read from, so the engine's executor (the one caller that wants the array)
    takes it as is instead of rebuilding it from the list."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        super().__init__(array.tolist())
        self.array = array


class ShardedSelector(SimilaritySelector):
    """Fan-out + merge over per-shard exact selectors."""

    DEFAULT_NUM_SHARDS = 4

    def __init__(
        self,
        dataset: Sequence,
        selector_factory: SelectorFactory,
        num_shards: Optional[int] = None,
        partitioner: Union[str, Partitioner, None] = None,
        runtime: Optional[Runtime] = None,
    ) -> None:
        super().__init__(dataset)
        self.selector_factory = selector_factory
        if isinstance(partitioner, Partitioner):
            if num_shards is not None and int(num_shards) != partitioner.num_shards:
                raise ValueError(
                    f"num_shards={num_shards} conflicts with the supplied "
                    f"partitioner's {partitioner.num_shards} shards; pass one "
                    "or the other (silently preferring either would hand back "
                    "a different shard count than requested)"
                )
            self.partitioner = partitioner
        else:
            self.partitioner = get_partitioner(
                partitioner,
                self.DEFAULT_NUM_SHARDS if num_shards is None else int(num_shards),
            )
        self.num_shards = self.partitioner.num_shards
        self._assignment = self.partitioner.partition(self._dataset)
        self._shards: List[SimilaritySelector] = [
            selector_factory([self._dataset[int(i)] for i in ids])
            for ids in self._assignment.global_ids
        ]
        #: ``None`` means shard metrics land in the process default registry;
        #: an engine injects its own runtime, so they land in its registry.
        self.runtime = runtime
        #: Serializes layout changes (shards/assignment/journal)
        #: against query capture and compaction.  Shard *compute*
        #: runs outside the lock, so queries never block behind an update for
        #: longer than the O(Δ) commit itself.
        self._lock = threading.RLock()
        self._dataset_stale = False
        #: ``None`` = no rebalance in flight; a list = journal of updates
        #: applied since :meth:`begin_rebalance`, replayed at commit.
        self._journal: Optional[List[UpdateOperation]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._assignment)

    @property
    def dataset(self) -> List:
        """The global record list, reconstructed lazily from the shards.

        Deltas keep the shard indexes current in O(Δ) and merely mark this
        view stale; the first reader pays one O(n) pointer gather (records in
        global-id order, via each shard's lazily-refreshed live dataset).
        """
        with self._lock:
            if self._dataset_stale:
                merged: List = [None] * len(self._assignment)
                for shard_id, shard in enumerate(self._shards):
                    ids = self._assignment.global_ids[shard_id]
                    for global_id, record in zip(ids, shard.dataset):
                        merged[int(global_id)] = record
                self._dataset = merged
                self._dataset_stale = False
            return self._dataset

    @property
    def assignment(self) -> ShardAssignment:
        return self._assignment

    @property
    def shards(self) -> List[SimilaritySelector]:
        return list(self._shards)

    @property
    def distance(self) -> DistanceFunction:
        """The distance every shard decides by (one factory built them all)."""
        return self._shards[0].distance

    def shard(self, shard_id: int) -> SimilaritySelector:
        return self._shards[shard_id]

    def shard_sizes(self) -> List[int]:
        return self._assignment.shard_sizes()

    def stats(self) -> Dict[str, Any]:
        """Shard-topology summary (the health report's per-attribute view)."""
        return {
            "num_shards": self.num_shards,
            "shard_sizes": self.shard_sizes(),
            "records": len(self),
            "rebalance_in_flight": self._journal is not None,
            "journal_depth": len(self._journal) if self._journal is not None else 0,
        }

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #
    def _fan_out(
        self, op: str, task: Callable[[SimilaritySelector], Any]
    ) -> Tuple[List[Any], ShardAssignment]:
        """Run ``task`` on every shard, in shard order, on the calling thread.

        The loop runs under :meth:`~repro.runtime.Runtime.run_inline`, which
        pushes the runtime's metrics sink, so each shard's ``shard.task`` span
        and op metrics land in the engine's registry.  The (shards,
        assignment) pair is captured under the layout lock so a concurrent
        rebalance commit cannot tear it; the shard compute itself runs
        outside the lock.  Returns the captured assignment so the caller
        merges local ids against the layout that actually answered.
        """
        with self._lock:
            shards = list(self._shards)
            assignment = self._assignment

        def loop() -> List[Any]:
            results = []
            for shard_id, shard in enumerate(shards):
                started = time.perf_counter()
                with span("shard.task", op=op, shard=shard_id):
                    results.append(task(shard))
                _record_shard_op(op, shard_id, time.perf_counter() - started)
            return results

        if self.runtime is None:
            with use_registry(default_registry()):
                return loop(), assignment
        return self.runtime.run_inline(loop), assignment

    @staticmethod
    def _merge(
        local_matches: Sequence[Sequence[int]], assignment: ShardAssignment
    ) -> np.ndarray:
        """Translate per-shard local match ids to one sorted global id array:
        one buffer, filled shard by shard and sorted in place."""
        counts = [len(matches) for matches in local_matches]
        merged = np.empty(sum(counts), dtype=np.int64)
        offset = 0
        for shard_id, (matches, count) in enumerate(zip(local_matches, counts)):
            if count:
                merged[offset:offset + count] = assignment.to_global(shard_id, matches)
                offset += count
        merged.sort()
        return merged

    # ------------------------------------------------------------------ #
    # Exact selection (bit-identical to the unsharded selector)
    # ------------------------------------------------------------------ #
    def query(self, record: Any, threshold: float) -> List[int]:
        merged, _ = self.query_with_counts(record, threshold)
        return merged

    def query_with_counts(
        self, record: Any, threshold: float
    ) -> Tuple[List[int], List[int]]:
        """Global match ids plus the per-shard match counts (executor telemetry)."""
        local_matches, assignment = self._fan_out(
            "query", lambda shard: shard.query(record, threshold)
        )
        return (
            _MergedIds(self._merge(local_matches, assignment)),
            [len(matches) for matches in local_matches],
        )

    def query_many(
        self, records: Sequence[Any], thresholds: Sequence[float]
    ) -> List[List[int]]:
        """Batched fan-out: each shard answers the whole workload in one task,
        amortizing the per-task overhead over every query."""
        if len(records) != len(thresholds):
            raise ValueError("records and thresholds must have the same length")
        per_shard, assignment = self._fan_out(
            "query_many",
            lambda shard: [
                shard.query(record, float(threshold))
                for record, threshold in zip(records, thresholds)
            ],
        )
        return [
            self._merge([matches[q] for matches in per_shard], assignment).tolist()
            for q in range(len(records))
        ]

    def cardinality(self, record: Any, threshold: float) -> int:
        counts, _ = self._fan_out(
            "cardinality", lambda shard: shard.cardinality(record, threshold)
        )
        return int(sum(counts))

    def cardinality_curve(self, record: Any, thresholds: Sequence[float]) -> np.ndarray:
        """Sum of per-shard exact curves — exact, and (like any sum of
        monotone curves) monotone non-decreasing in the threshold."""
        thresholds = np.asarray(thresholds, dtype=np.float64)
        if thresholds.size == 0:
            return np.zeros(0, dtype=np.int64)
        curves, _ = self._fan_out(
            "cardinality_curve",
            lambda shard: shard.cardinality_curve(record, thresholds),
        )
        return np.sum(curves, axis=0).astype(np.int64)

    def rebuild(self, dataset: Sequence) -> "ShardedSelector":
        return ShardedSelector(
            dataset,
            self.selector_factory,
            partitioner=self.partitioner,
            runtime=self.runtime,
        )

    # ------------------------------------------------------------------ #
    # Snapshot hooks (repro.store)
    # ------------------------------------------------------------------ #
    def _rebuild_shard(self, records: Sequence) -> SimilaritySelector:
        """Post-restore selector factory: clone the *current* shard 0's
        configuration via its ``rebuild``.  A method (not a bound method of a
        shard) so it never pins a replaced shard's index and dataset alive."""
        return self._shards[0].rebuild(records)

    def __snapshot_state__(self) -> Dict[str, Any]:
        """Persist shards + assignment; drop the unserializable members.

        ``selector_factory`` is typically a caller closure — the restore hook
        substitutes :meth:`_rebuild_shard`, which reconstructs a same-type,
        same-configuration selector, so post-restore updates keep working.
        The ``runtime`` reference persists as an object, preserving
        runtime-sharing identity across restore: an engine and its sharded
        selectors restore onto ONE runtime.  The
        layout lock and an in-flight rebalance journal are likewise dropped —
        a restored selector serves the committed layout.
        """
        state = dict(self.__dict__)
        state["_dataset"] = self.dataset  # materialize if delta-stale
        state["_dataset_stale"] = False
        state.pop("selector_factory", None)
        state.pop("_lock", None)
        state["_journal"] = None
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        # Format-8 snapshots written before the fan-out became one loop
        # persist its dispatch switch; it no longer exists.
        state.pop("parallel", None)
        self.__dict__.update(state)
        self.selector_factory = self._rebuild_shard
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Update routing (the per-shard §8 path)
    # ------------------------------------------------------------------ #
    def route_operation(self, operation: UpdateOperation) -> ShardRouting:
        """Translate a global update into per-shard local operations.

        Nothing is applied; the returned routing is committed with
        :meth:`apply_routed`.  Applying each shard's local operation to that
        shard's records yields exactly the shards of the globally updated
        dataset.  A delete list means what it means everywhere lenient
        (:func:`~repro.selection.delta.resolve_delete_positions`: the distinct
        positions within ``[0, n)``), and its per-shard locals are a
        vectorized O(Δ) directory gather.
        """
        with self._lock:
            assignment = self._assignment
            partitioner = self.partitioner
        total = len(assignment)
        local_operations: Dict[int, UpdateOperation] = {}
        if operation.kind == "insert":
            new_records = list(operation.records)
            shard_ids = partitioner.assign(new_records, start_index=total)
            for shard_id in np.unique(shard_ids):
                subset = [
                    record
                    for record, shard in zip(new_records, shard_ids)
                    if shard == shard_id
                ]
                local_operations[int(shard_id)] = UpdateOperation("insert", subset)
            new_shard_of = np.concatenate([assignment.shard_of, shard_ids])
        else:  # delete, by global positional index
            positions = resolve_delete_positions(total, operation.records)
            removed = np.zeros(total, dtype=bool)
            removed[positions] = True
            position_shards = assignment.shard_of[positions]
            position_locals = assignment.local_of[positions]
            for shard_id in np.unique(position_shards):
                locals_ = position_locals[position_shards == shard_id]
                local_operations[int(shard_id)] = UpdateOperation(
                    "delete", [int(i) for i in locals_[::-1]]
                )
            new_shard_of = assignment.shard_of[~removed]
        return ShardRouting(
            operation=operation,
            local_operations=local_operations,
            new_shard_of=new_shard_of,
        )

    def apply_routed(
        self, routing: ShardRouting, applied_shards: Collection[int] = ()
    ) -> None:
        """Commit a routed update in place as O(Δ) deltas on touched shards.

        Each touched shard absorbs its local operation through
        ``insert_many``/``delete_many`` — append segments + tombstones on
        delta-maintained selectors, an in-place rebuild on selectors without
        delta support.  Untouched shards are not even looked at.

        ``applied_shards`` names the touched shards whose local operation was
        already applied in place (by the per-shard
        :class:`~repro.core.IncrementalUpdateManager` sharing that shard's
        index); for those only the resulting length is validated.
        """
        with self._lock:
            if routing.operation.kind == "insert":
                delta = routing.new_shard_of[len(self._assignment):]
                new_assignment = self._assignment.with_inserts(delta)
            else:
                new_assignment = ShardAssignment.from_shard_of(
                    routing.new_shard_of, self.num_shards
                )
            for shard_id, local_operation in routing.local_operations.items():
                expected = len(new_assignment.global_ids[shard_id])
                shard = self._shards[shard_id]
                if shard_id in applied_shards:
                    pass  # applied in place already; only the length is checked
                elif local_operation.kind == "insert":
                    shard.insert_many(local_operation.records)
                else:
                    shard.delete_many(
                        resolve_delete_positions(len(shard), local_operation.records)
                    )
                if len(shard) != expected:
                    raise ValueError(
                        f"shard {shard_id} has {len(shard)} records after the update, "
                        f"expected {expected}; the routed local operation and the "
                        "shard's index disagree"
                    )
            self._assignment = new_assignment
            if routing.operation.kind == "insert" and not self._dataset_stale:
                self._dataset.extend(routing.operation.records)
            else:
                self._dataset_stale = True
            self._mutations += 1
            if self._journal is not None:
                self._journal.append(routing.operation)

    def apply_operation(self, operation: UpdateOperation) -> ShardRouting:
        """Route and commit a global update in one call (no external managers)."""
        with self._lock:
            routing = self.route_operation(operation)
            self.apply_routed(routing)
        return routing

    def insert_many(self, records: Sequence) -> int:
        records = list(records)
        if not records:
            return 0
        self.apply_operation(UpdateOperation("insert", records))
        return len(records)

    def delete_many(self, positions) -> int:
        from ..selection.delta import check_delete_positions

        checked = check_delete_positions(len(self), positions)
        if checked.size == 0:
            return 0
        self.apply_operation(UpdateOperation("delete", [int(i) for i in checked]))
        return int(checked.size)

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> int:
        """Synchronously compact every shard; returns total rows reclaimed.
        Between calls each shard's forced-compaction bound (synchronous,
        amortized O(Δ)) keeps its tombstones bounded."""
        with self._lock:
            return sum(shard.compact() for shard in self._shards)

    def needs_compaction(self) -> bool:
        return any(shard.needs_compaction() for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Live rebalancing (repro.sharding.rebalance drives these)
    # ------------------------------------------------------------------ #
    def begin_rebalance(self) -> ShardLayoutSnapshot:
        """Capture a consistent base layout and start journaling updates.

        The old layout keeps serving queries *and updates* while the new one
        is built elsewhere; every update applied between begin and commit is
        journaled and replayed against the staged layout at commit, so the
        swap loses nothing.
        """
        with self._lock:
            if self._journal is not None:
                raise RuntimeError(
                    "a rebalance is already in flight; commit or abort it first"
                )
            base = ShardLayoutSnapshot(
                records=list(self.dataset),
                assignment=self._assignment,
                shards=list(self._shards),
                versions=[shard.mutation_count for shard in self._shards],
            )
            self._journal = []
            return base

    def abort_rebalance(self) -> int:
        """Discard the staged rebalance; the live layout is already current.

        Returns the number of journaled operations dropped (they were applied
        to the live layout as they arrived — only the replay list is
        discarded)."""
        with self._lock:
            journal, self._journal = self._journal, None
            return len(journal) if journal is not None else 0

    def commit_rebalance(
        self,
        base: ShardLayoutSnapshot,
        assignment: ShardAssignment,
        built_shards: Dict[int, SimilaritySelector],
        aliased_sources: Optional[Dict[int, int]] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> int:
        """Atomically swap in a rebalanced layout; returns ops replayed.

        ``assignment`` maps the *base* records (global ids as of ``base``) to
        the new shards.  ``built_shards`` holds the target selectors built
        from base slices; ``aliased_sources`` maps target shard id → base
        shard id for targets whose record set is unchanged — the old shard
        object is aliased into the new layout *only if* its mutation count
        still matches the base capture (shards mutate in place, so a version
        bump means journaled updates touched it; the target is then rebuilt
        from the immutable base records instead, and the journal replay
        re-applies those updates).

        The swap itself is O(shards) under the lock: queries either see the
        complete old layout or the complete new one, never a mix.  After the
        swap the journal replays through the normal O(Δ) delta path.
        """
        aliased_sources = dict(aliased_sources or {})
        with self._lock:
            if self._journal is None:
                raise RuntimeError("no rebalance in flight; call begin_rebalance first")
            if len(assignment) != len(base.records):
                raise ValueError(
                    f"rebalance assignment covers {len(assignment)} records, "
                    f"base layout has {len(base.records)}"
                )
            staged: List[Optional[SimilaritySelector]] = [None] * assignment.num_shards
            for target in range(assignment.num_shards):
                expected = len(assignment.global_ids[target])
                shard: Optional[SimilaritySelector] = None
                if target in built_shards:
                    shard = built_shards[target]
                elif target in aliased_sources:
                    source = aliased_sources[target]
                    candidate = base.shards[source]
                    if candidate.mutation_count == base.versions[source]:
                        shard = candidate
                if shard is None and target in aliased_sources:
                    # Aliased source mutated since begin: rebuild the target
                    # from the immutable base records; the journal replay
                    # below restores the in-flight updates.
                    shard = self.selector_factory(
                        [base.records[int(i)] for i in assignment.global_ids[target]]
                    )
                if shard is None:
                    raise ValueError(
                        f"rebalance target shard {target} has neither a built "
                        "selector nor an aliased source"
                    )
                if len(shard) != expected:
                    raise ValueError(
                        f"rebalance target shard {target} has {len(shard)} records, "
                        f"expected {expected}"
                    )
                staged[target] = shard
            if partitioner is not None:
                if partitioner.num_shards != assignment.num_shards:
                    raise ValueError(
                        f"partitioner covers {partitioner.num_shards} shards, "
                        f"assignment has {assignment.num_shards}"
                    )
                self.partitioner = partitioner
            elif assignment.num_shards != self.partitioner.num_shards:
                raise ValueError(
                    "shard count changed; pass a partitioner covering "
                    f"{assignment.num_shards} shards"
                )
            self.num_shards = assignment.num_shards
            self._shards = list(staged)
            self._assignment = assignment
            self._dataset = list(base.records)
            self._dataset_stale = False
            self._mutations += 1
            journal, self._journal = self._journal, None
            for operation in journal:
                self.apply_operation(operation)
            return len(journal)
