"""Exact similarity selection over horizontally sharded data.

:class:`ShardedSelector` partitions the dataset into shards (one inner
selector per shard) and answers a query, or a batch of them
(:meth:`ShardedSelector.query_many`, one ``query_many`` per shard for the
whole batch), by fan-out + merge: each shard runs the exact selection on its
slice and the shard-local match ids are translated back to global record ids
and merged in ascending order.  Because every shard is exact and the merge loses
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

A rebalance is one staged build and one checked swap:
``repro.sharding.rebalance.stage`` builds the changed shards of a new layout
from a captured base while the old layout serves, and
:meth:`ShardedSelector.swap_layout` swaps it in atomically — or, if an update
landed since the capture, raises :class:`StaleRebalanceError` and leaves the
old layout serving.

A caller-supplied factory builds the first layout's shards and is not kept.
Every later shard — of a :meth:`ShardedSelector.rebuild` or a rebalance — is
built by shard 0's own ``rebuild``, so it has shard 0's class and
configuration, and a restored selector builds shards exactly as the saved one
did.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..datasets.updates import UpdateOperation
from ..distances.base import DistanceFunction
from ..obs.trace import span
from ..selection.base import SimilaritySelector
from ..selection.delta import resolve_delete_positions
from .partitioner import ShardAssignment, assign_shards

if TYPE_CHECKING:  # repro.sharding.rebalance imports this module
    from .rebalance import StagedLayout

#: Builds the exact selector for one shard's records.
SelectorFactory = Callable[[Sequence], SimilaritySelector]


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


class StaleRebalanceError(RuntimeError):
    """A staged rebalance was captured before an update the selector has since
    applied; the live layout is untouched and the plan must be staged again."""


class ShardedSelector(SimilaritySelector):
    """Fan-out + merge over per-shard exact selectors."""

    DEFAULT_NUM_SHARDS = 4

    def __init__(
        self,
        dataset: Sequence,
        selector_factory: SelectorFactory,
        num_shards: Optional[int] = None,
    ) -> None:
        self.num_shards = self.DEFAULT_NUM_SHARDS if num_shards is None else int(num_shards)
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self._assignment = ShardAssignment.from_shard_of(
            assign_shards(dataset, self.num_shards), self.num_shards
        )
        self._shards: List[SimilaritySelector] = [
            selector_factory([dataset[int(i)] for i in ids])
            for ids in self._assignment.global_ids
        ]
        #: Serializes layout changes (shards/assignment) against query
        #: capture and compaction.  Shard *compute*
        #: runs outside the lock, so queries never block behind an update for
        #: longer than the O(Δ) commit itself.
        self._lock = threading.RLock()
        self._mutations = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._assignment)

    def _by_shard(
        self, ids: np.ndarray
    ) -> Tuple[np.ndarray, List[Tuple[SimilaritySelector, np.ndarray]]]:
        """``(order, parts)``: ``ids[order]`` groups the ids by shard, each
        group in the caller's order, and ``parts`` lists every touched shard
        with its group's local ids, in shard order.  The layout is captured
        under the lock once; ``parts`` is empty for no ids."""
        with self._lock:
            shards, assignment = self._shards, self._assignment
        order = np.argsort(assignment.shard_of[ids], kind="stable")
        grouped = ids[order]
        bounds = np.searchsorted(assignment.shard_of[grouped], np.arange(len(shards) + 1)).tolist()
        local = assignment.local_of[grouped]
        parts = [
            (shard, local[lo:hi])
            for shard, lo, hi in zip(shards, bounds, bounds[1:])
            if lo < hi  # an untouched shard may be empty, its rows of no width
        ]
        return order, parts

    def rows_at(self, ids) -> Sequence:
        """The records at these global ids, gathered from the shards that hold
        them: one ``rows_at`` per shard touched, no per-row loop for array
        columns.  ``dataset`` is this gather over every global id."""
        ids = np.asarray(ids, dtype=np.int64)
        order, parts = self._by_shard(ids)
        if not parts:
            return self._shards[0].rows_at(ids)
        rows = None
        offset = 0
        for shard, local in parts:
            part = shard.rows_at(local)
            at = order[offset : offset + len(local)]
            offset += len(local)
            if rows is None:
                array = isinstance(part, np.ndarray)
                rows = (
                    np.empty((len(ids),) + part.shape[1:], part.dtype) if array
                    else [None] * len(ids)
                )
            if array:
                rows[at] = part
            else:
                for position, row in zip(at.tolist(), part):
                    rows[position] = row
        return rows

    def distances_at(self, records, ids, owners=None) -> np.ndarray:
        """One kernel call over every shard's stored kernel input: each
        touched shard gathers its input for its ids (packed words for
        Hamming, code rows for edit, rows otherwise), the inputs are joined
        into one, grouped by shard, and the first touched shard's kernel
        (every shard has shard 0's class and configuration) runs once over
        it; the distances go back to the caller's order.  One kernel call per
        shard measured slower (``docs/perf/pr-44/time_sharded_verify.txt``)."""
        ids = np.asarray(ids, dtype=np.int64)
        order, parts = self._by_shard(ids)
        if not parts:
            return np.zeros(0)
        kernel = parts[0][0]
        distances = kernel._verify_kernel(
            records,
            kernel._join_verify_rows([shard._verify_rows(local) for shard, local in parts]),
            None if owners is None else np.asarray(owners, dtype=np.int64)[order],
        )
        out = np.empty_like(distances)
        out[order] = distances
        return out

    def probe_cost(self, estimate: float) -> float:
        """Every shard's probe, each matching its size's share of ``estimate``:
        a fan-out pays every shard's fixed cost.  (A verify runs the shard
        class's kernel once over every shard's gathered input, see
        :meth:`distances_at`, but is still priced by the distance's default
        kernel, :data:`~repro.selection.base.DEFAULT_VERIFY_COST_US`.)

        Each shard's price is affine in ``max(0, estimate)``, so their sum is
        one line, ``intercept + slope · max(0, estimate)``; its two
        coefficients are kept and recomputed only when the layout changes
        (an update or a swap), not walked over the shards per plan."""
        with self._lock:
            # ``(mutation count, intercept, slope)``; absent until the first
            # price and on a selector restored from a snapshot that had none.
            line = getattr(self, "_probe_line", None)
            if line is None or line[0] != self._mutations:
                line = self._probe_line = (self._mutations, *self._price_line())
        _, intercept, slope = line
        return intercept + slope * max(0.0, estimate)

    def _price_line(self) -> Tuple[float, float]:
        """``(intercept, slope)`` of :meth:`probe_cost` over the current shards:
        every shard's price at no match, and what each adds per matching row
        spread over the shards by size."""
        intercept = sum(shard.probe_cost(0.0) for shard in self._shards)
        slope = sum(
            shard.probe_cost(float(len(shard))) - shard.probe_cost(0.0)
            for shard in self._shards
        ) / max(1, len(self))
        return intercept, slope

    @property
    def assignment(self) -> ShardAssignment:
        return self._assignment

    @property
    def shards(self) -> List[SimilaritySelector]:
        return list(self._shards)

    @property
    def distance(self) -> DistanceFunction:
        """The distance every shard decides by (all share shard 0's configuration)."""
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
        }

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #
    def _fan_out(
        self, op: str, task: Callable[[SimilaritySelector], Any]
    ) -> Tuple[List[Any], ShardAssignment]:
        """Run ``task`` on every shard, in shard order, on the calling thread.

        Each task runs in a ``shard.task`` span (what
        ``explain_analyze().shard_spans()`` reads).  The (shards, assignment)
        pair is captured under the layout lock so a concurrent rebalance
        swap cannot tear it; the shard compute itself runs outside the
        lock.  Returns the captured assignment so the caller merges local ids
        against the layout that actually answered.
        """
        with self._lock:
            shards = list(self._shards)
            assignment = self._assignment
        results = []
        for shard_id, shard in enumerate(shards):
            with span("shard.task", op=op, shard=shard_id):
                results.append(task(shard))
        return results, assignment

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
        return merged.tolist()

    def query_with_counts(
        self, record: Any, threshold: float
    ) -> Tuple[np.ndarray, List[int]]:
        """The sorted int64 array of global match ids plus the per-shard match
        counts (executor telemetry)."""
        local_matches, assignment = self._fan_out(
            "query", lambda shard: shard.query(record, threshold)
        )
        return (
            self._merge(local_matches, assignment),
            [len(matches) for matches in local_matches],
        )

    def query_many(self, records: Sequence, thresholds: Sequence[float]) -> List[np.ndarray]:
        merged, _ = self.query_many_with_counts(records, thresholds)
        return merged

    def query_many_with_counts(
        self, records: Sequence, thresholds: Sequence[float]
    ) -> Tuple[List[np.ndarray], List[List[int]]]:
        """:meth:`query_with_counts` for every ``(records[k], thresholds[k])``:
        one ``query_many`` task per shard for the whole batch, then each
        shard's local ids are translated to global ids once, and one sort of
        ``(query, global id)`` keys splits them into each query's ascending
        int64 matches."""
        local_answers, assignment = self._fan_out(
            "query_many", lambda shard: shard.query_many(records, thresholds)
        )
        if not local_answers[0]:
            return [], []
        sizes = np.asarray([[ids.size for ids in answers] for answers in local_answers])
        queries = sizes.shape[1]
        stride = max(1, len(assignment))
        keys = np.concatenate([
            assignment.to_global(shard_id, np.concatenate(answers))
            + np.repeat(np.arange(queries, dtype=np.int64) * stride, sizes[shard_id])
            for shard_id, answers in enumerate(local_answers)
        ])
        keys.sort()
        bounds = np.searchsorted(keys, np.arange(1, queries, dtype=np.int64) * stride)
        return np.split(keys % stride, bounds), sizes.T.tolist()

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
        """The same sharding over ``dataset``, each shard built by shard 0's
        ``rebuild``."""
        return ShardedSelector(dataset, self._shards[0].rebuild, num_shards=self.num_shards)

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
        total = len(assignment)
        local_operations: Dict[int, UpdateOperation] = {}
        if operation.kind == "insert":
            new_records = list(operation.records)
            shard_ids = assign_shards(new_records, assignment.num_shards)
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
            self._mutations += 1

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

    # ------------------------------------------------------------------ #
    # Rebalance swap (repro.sharding.rebalance.stage builds the layout)
    # ------------------------------------------------------------------ #
    def swap_layout(self, staged: "StagedLayout") -> None:
        """Swap a staged layout in — assignment and shards — in
        O(shards) under the lock, so a query sees the whole old layout or the
        whole new one.  If an update landed since staging captured
        ``staged.mutation_count``, the staged shards miss its rows: the swap
        raises :class:`StaleRebalanceError` and the old layout keeps serving."""
        assignment = staged.assignment
        with self._lock:
            if self._mutations != staged.mutation_count:
                raise StaleRebalanceError(
                    f"the layout changed {self._mutations - staged.mutation_count} "
                    "time(s) since this rebalance was staged (updates or another "
                    "rebalance); the old layout keeps serving — stage the plan again"
                )
            if [len(shard) for shard in staged.shards] != assignment.shard_sizes():
                raise ValueError("the staged shards do not hold the rows the assignment gives them")
            self.num_shards = assignment.num_shards
            self._shards = list(staged.shards)
            self._assignment = assignment
            self._mutations += 1
