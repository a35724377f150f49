"""Exact similarity selection over horizontally sharded data.

:class:`ShardedSelector` partitions the dataset into shards (one inner
selector per shard, built by a caller-supplied factory) and answers every
query by fan-out + merge: each shard runs the exact selection on its slice
and the shard-local match ids are translated back to global record ids and
merged in ascending order.  Because every shard is exact and the merge loses
nothing, results are bit-identical to running the unsharded selector over the
full dataset, for any partitioning.

Where the shard tasks run is decided per fan-out from what the selector can
observe (:func:`fan_out_mode`): on the calling thread, unless more than one
core is usable and one task of that op has been costing at least
:data:`THREAD_DISPATCH_FLOOR_SECONDS` of CPU — the measured size from which
handing tasks to the runtime's thread pool beats looping over them.

With ``backend="process"`` the fan-out escapes the GIL entirely: each shard's
index arrays are published once through a
:class:`~repro.store.SharedDataPlane` and every query ships only the op +
arguments to forked worker processes, which attach the shard's arrays as
read-only mmap views and rebuild the selector exactly once per (shard,
process).  Results stay bit-identical to the thread backend — same selector
classes, same kernels, only the address space differs.  Shards whose selector
cannot export a plane (``export_arrays() is None``) silently keep the
in-process fan-out; on platforms without ``fork`` the process pool itself
runs on threads.

Updates route the same way (§8 per shard, not globally): an insert/delete
expressed against *global* record ids is translated into one local operation
per touched shard (:meth:`ShardedSelector.route_operation`) and committed as
an O(Δ) in-place delta (:meth:`~repro.selection.SimilaritySelector.insert_many`
/ :meth:`~repro.selection.SimilaritySelector.delete_many`) on exactly those
shards — untouched shards keep their index, labels, model, served curves,
*and published data plane*.  Only the touched shards' planes are re-exported.

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
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..datasets.updates import UpdateOperation
from ..distances.base import DistanceFunction
from ..obs.metrics import current_registry
from ..obs.trace import span
from ..runtime import POOL_BACKENDS, Runtime, default_runtime, usable_cores
from ..selection.base import SimilaritySelector
from ..selection.delta import resolve_delete_positions
from ..store.plane import PlaneHandle, SharedDataPlane, cached_rebuild
from .partitioner import Partitioner, ShardAssignment, get_partitioner

#: Builds the exact selector for one shard's records.
SelectorFactory = Callable[[Sequence], SimilaritySelector]

#: Runtime pool name every sharded selector fans out on — selectors sharing a
#: runtime share these workers instead of spawning one executor each.
SHARD_POOL = "shards"

#: Distinct pool name for the process-backend fan-out.  Pool configuration is
#: first-acquisition-wins, so the process path must never race a component
#: that already created ``"shards"`` as a thread pool.
SHARD_PROCESS_POOL = "shards-proc"

#: Mean CPU seconds of one shard task from which a thread fan-out pays — the
#: measured break-even, read in :func:`fan_out_mode` and nowhere else.
#:
#: Standalone 4-shard selector, thread fan-out vs the inline loop over the same
#: 24 probes, 4 interleaved passes, median ms per query per pass (ranges: this
#: box wanders), beside the CPU ms per shard task the selector's own meter
#: read.  2 usable cores (Linux 6.18 Firecracker guest, Python 3.11.7, numpy
#: 2.4.6, BLAS on one thread); committed with its machine block as
#: ``docs/perf/pr-18/fan_out_break_even.json``, reproduced by
#: ``pytest benchmarks/bench_fan_out_break_even.py -s --run-break-even``:
#:
#: ========= ======= =========== =========== ======== ======= =========
#: distance  rows    pool ms     inline ms   task CPU faster  rule runs
#: ========= ======= =========== =========== ======== ======= =========
#: hamming   5,000   0.19–0.23   0.10–0.12   0.018    inline  inline
#: hamming   40,000  0.28–0.43   0.17–0.21   0.035    inline  inline
#: hamming   200,000 0.79–1.11   0.66–0.80   0.144    overlap inline
#: hamming   400,000 1.85–2.31   1.68–2.00   0.403    overlap inline
#: hamming   800,000 3.82–7.02   3.60–4.07   0.854    overlap inline
#: euclidean 5,000   0.42–0.55   0.35–0.37   0.071    inline  inline
#: euclidean 40,000  2.45–3.23   2.23–2.89   0.529    overlap inline
#: euclidean 200,000 7.35–13.41  11.13–11.63 2.733    overlap inline
#: euclidean 400,000 12.86–14.17 17.94–24.84 5.910    pool    pool
#: euclidean 800,000 33.99–38.60 51.00–53.36 12.955   pool    pool
#: ========= ======= =========== =========== ======== ======= =========
#:
#: Over every cell measured while the floor was chosen (61, five runs of this
#: table or parts of it in separate processes; all listed in CHANGES.md):
#: below 1 ms of CPU per task the pool was never the faster side (27 cells:
#: inline ahead in 18, ranges overlapping in 9); from 2.95 ms it was never the
#: slower one (24 cells: pool ahead in 20, overlapping in 4, by up to ~1.5x);
#: between, the sides trade places from process to process (10 cells: inline
#: 2, pool 3, overlap 5).  The floor sits at the top of that band: a pool is
#: used only where it was never seen to lose.  Scaling on >= 4 cores is
#: unmeasured (this box has two); on two, the thread path does not scale yet
#: beyond that ~1.5x.
THREAD_DISPATCH_FLOOR_SECONDS = 0.003


def fan_out_mode(
    parallel: bool,
    num_tasks: int,
    planes: bool,
    cores: int,
    mean_task_seconds: float,
) -> str:
    """Where one batch of shard tasks runs — the shard fan-out's one decision.

    Published process planes mean worker processes (the selector was asked
    for them and every shard could export).  Otherwise the tasks are a loop
    on the calling thread unless dispatch is allowed (``parallel``), there is
    something to overlap (more than one task, more than one usable core) and
    one task has been costing at least :data:`THREAD_DISPATCH_FLOOR_SECONDS`
    of CPU.  No measurement yet reads as ``0.0`` and so as inline: the first
    fan-out of an op is the measurement.
    """
    if planes:
        return "process"
    if (
        parallel
        and num_tasks > 1
        and cores > 1
        and mean_task_seconds >= THREAD_DISPATCH_FLOOR_SECONDS
    ):
        return "thread"
    return "inline"


class _FanOutMeter:
    """What a selector has observed about its own fan-outs: per op, the
    running mean of one shard task's CPU seconds, and where the last fan-out
    ran.

    CPU time (``time.thread_time``) is the same number on the caller and on
    a pool worker and does not count waiting for the interpreter lock, so
    the mode chosen from it does not feed back into it.  The mean is plain
    over the first :attr:`WINDOW` tasks and exponentially weighted after, so
    it follows shards that grow.  Advisory state: it is dropped from
    snapshots, and losing it costs at most one inline fan-out per op.
    """

    WINDOW = 32

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._means: Dict[str, Tuple[int, float]] = {}
        self._last_mode: Optional[str] = None

    def observe(self, op: str, cpu_seconds: float) -> None:
        with self._lock:
            count, mean = self._means.get(op, (0, 0.0))
            count = min(count + 1, self.WINDOW)
            self._means[op] = (count, mean + (cpu_seconds - mean) / count)

    def ran(self, mode: str) -> None:
        with self._lock:
            self._last_mode = mode

    def mean(self, op: str) -> float:
        with self._lock:
            return self._means.get(op, (0, 0.0))[1]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "last_fan_out": self._last_mode,
                "mean_task_seconds": {
                    op: mean for op, (_, mean) in sorted(self._means.items())
                },
            }


def _record_shard_op(op: str, shard_id: int, seconds: float) -> None:
    """Count one shard task into the ambient registry (op + shard labelled).

    ``current_registry()`` is the routing trick that makes both backends
    land in the same place: on worker threads the pool pushes its telemetry
    registry, in forked children it is the per-task scratch registry whose
    state merges back with the result.
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


def _run_shard_op(selector: SimilaritySelector, op: str, payload: Tuple) -> Any:
    """Dispatch one shard op against one shard's selector."""
    if op == "query":
        record, threshold = payload
        return selector.query(record, threshold)
    if op == "query_many":
        records, thresholds = payload
        return [
            selector.query(record, float(threshold))
            for record, threshold in zip(records, thresholds)
        ]
    if op == "cardinality":
        record, threshold = payload
        return selector.cardinality(record, threshold)
    if op == "cardinality_curve":
        record, thresholds = payload
        return selector.cardinality_curve(
            record, np.asarray(thresholds, dtype=np.float64)
        )
    raise ValueError(f"unknown shard op {op!r}")


def _plane_shard_task(
    handle: PlaneHandle, selector_cls: type, op: str, shard_id: int, payload: Tuple
) -> Any:
    """One shard's work inside a worker process.

    Module-level (picklable) by construction.  The selector is rebuilt from
    the plane's mmap'd arrays at most once per (shard, process) via
    :func:`~repro.store.cached_rebuild`; after that warm-up every task is
    pure compute over shared pages.  The ``shard.task`` span lands under the
    child's ``process.task`` root when the query is traced, and the shard-op
    metrics land in the child's per-task registry — both ride back to the
    parent with the result.
    """
    selector = cached_rebuild(
        handle,
        selector_cls.__qualname__,
        lambda arrays, meta: selector_cls.from_arrays(arrays, meta),
    )
    started = time.perf_counter()
    with span("shard.task", op=op, shard=shard_id):
        result = _run_shard_op(selector, op, payload)
    _record_shard_op(op, shard_id, time.perf_counter() - started)
    return result


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
        parallel: bool = True,
        runtime: Optional[Runtime] = None,
        backend: str = "thread",
    ) -> None:
        super().__init__(dataset)
        if backend not in POOL_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {POOL_BACKENDS}"
            )
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
        self.parallel = bool(parallel)
        self._assignment = self.partitioner.partition(self._dataset)
        self._shards: List[SimilaritySelector] = [
            selector_factory([self._dataset[int(i)] for i in ids])
            for ids in self._assignment.global_ids
        ]
        #: ``None`` means "the process-wide default runtime, resolved at use"
        #: — an engine injects its own so serving, sharding, and pipelined
        #: execution share one set of workers.
        self.runtime = runtime
        #: Requested fan-out backend; the effective one degrades to threads
        #: per query when a shard cannot publish a plane (see _shard_planes).
        self.backend = backend
        #: Serializes layout changes (shards/assignment/planes/journal)
        #: against query capture and compaction.  Shard *compute*
        #: runs outside the lock, so queries never block behind an update for
        #: longer than the O(Δ) commit itself.
        self._lock = threading.RLock()
        self._dataset_stale = False
        self._plane: Optional[SharedDataPlane] = None
        self._shard_planes: Optional[List[Tuple[PlaneHandle, type]]] = None
        self._plane_disabled = False
        self._dirty_plane_shards: Set[int] = set()
        #: ``None`` = no rebalance in flight; a list = journal of updates
        #: applied since :meth:`begin_rebalance`, replayed at commit.
        self._journal: Optional[List[UpdateOperation]] = None
        self._meter = _FanOutMeter()

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
        """Shard-topology summary (the health report's per-attribute view),
        with where the last fan-out ran (``inline`` / ``thread`` /
        ``process``; ``None`` before the first) and the per-op mean CPU
        seconds of one shard task that choice was made on."""
        return {
            "num_shards": self.num_shards,
            "shard_sizes": self.shard_sizes(),
            "parallel": self.parallel,
            "backend": self.backend,
            "records": len(self),
            "rebalance_in_flight": self._journal is not None,
            "journal_depth": len(self._journal) if self._journal is not None else 0,
            **self._meter.snapshot(),
        }

    @property
    def dispatches_to_processes(self) -> bool:
        """Whether fan-outs currently go to worker processes: asked for,
        allowed, and no shard has refused to export a plane.  The one case
        in which a caller of this selector waits outside the interpreter."""
        return self.backend == "process" and self.parallel and not self._plane_disabled

    # ------------------------------------------------------------------ #
    # Parallel fan-out
    # ------------------------------------------------------------------ #
    def _shard_call(
        self, op: str, shard_id: int, shard: SimilaritySelector,
        task: Callable[[SimilaritySelector], Any],
    ) -> Any:
        """Run one shard's task under a ``shard.task`` span + op metrics,
        metering the CPU seconds of the task body for :func:`fan_out_mode`."""
        started = time.perf_counter()
        with span("shard.task", op=op, shard=shard_id):
            cpu_started = time.thread_time()
            result = task(shard)
            self._meter.observe(op, time.thread_time() - cpu_started)
        _record_shard_op(op, shard_id, time.perf_counter() - started)
        return result

    def _shard_loop(
        self,
        op: str,
        task: Callable[[SimilaritySelector], Any],
        shards: List[SimilaritySelector],
    ) -> List[Any]:
        return [
            self._shard_call(op, shard_id, shard, task)
            for shard_id, shard in enumerate(shards)
        ]

    def _map_shards(
        self,
        op: str,
        task: Callable[[SimilaritySelector], Any],
        shards: List[SimilaritySelector],
        mode: str,
    ) -> List[Any]:
        """Run ``task`` on every shard selector in this process: as a loop on
        the calling thread (``mode="inline"``) or as one task per shard on
        the runtime's shared :data:`SHARD_POOL` (``mode="thread"``).

        The same :meth:`_shard_call` runs either way — same span, same
        metrics, same registry (:meth:`~repro.runtime.Runtime.run_inline`
        pushes the sink a pool worker would).  Worker threads share one
        interpreter lock, so the pool gains only what the shard kernels spend
        outside it; :func:`fan_out_mode` picks it from the measured
        break-even (:data:`THREAD_DISPATCH_FLOOR_SECONDS`), not on faith.
        The pool is acquired lazily, so a freshly restored selector (whose
        runtime dropped its pools at save) rebuilds it on its first thread
        fan-out.

        Submission is shard-id-aware (each task knows which shard it covers,
        for spans and metrics) but keeps ``pool.map``'s error contract: every
        handle resolves before the first failure re-raises.
        """
        runtime = self.runtime if self.runtime is not None else default_runtime()
        if mode == "inline":
            return runtime.run_inline(self._shard_loop, op, task, shards)
        pool = runtime.pool(SHARD_POOL, num_workers=len(shards))
        handles = [
            pool.submit(self._shard_call, op, shard_id, shard, task)
            for shard_id, shard in enumerate(shards)
        ]
        errors = [handle.exception() for handle in handles]
        for error in errors:
            if error is not None:
                raise error
        return [handle.result() for handle in handles]

    def _ensure_planes(self) -> Optional[List[Tuple[PlaneHandle, type]]]:
        """Publish shard arrays (incrementally); ``None`` = thread fallback.

        Publication is all-or-nothing: one shard that cannot export arrays
        (e.g. a Jaccard selector over non-integer tokens) disables the
        process path for the whole selector — half-process/half-thread
        fan-out would serialize on the slower half anyway.

        After an update only the *dirty* shards (the ones the update touched)
        re-export and republish; every other shard keeps its published plane,
        so worker processes keep their warm mmap views and rebuild caches.
        A layout change (rebalance, shard-count change) resets everything.
        """
        # Unlike the thread path there is no single-shard shortcut: one shard
        # in one worker process still moves the scan off the caller's core
        # (and keeps 1-worker measurements honest about pipe overhead).
        if not self.dispatches_to_processes:
            return None
        with self._lock:
            if self._plane_disabled:
                return None
            if self._shard_planes is not None and not self._dirty_plane_shards:
                return self._shard_planes
            if (
                self._shard_planes is not None
                and len(self._shard_planes) == self.num_shards
            ):
                # Incremental path: re-export only the dirty shards.
                planes = list(self._shard_planes)
                dirty = sorted(self._dirty_plane_shards)
                refresh = dirty
            else:
                planes = [None] * self.num_shards
                refresh = list(range(self.num_shards))
            exports = []
            for shard_id in refresh:
                shard = self._shards[shard_id]
                exported = shard.export_arrays()
                if exported is None:
                    self._plane_disabled = True
                    self._shard_planes = None
                    self._dirty_plane_shards = set()
                    return None
                exports.append((shard_id, type(shard), exported))
            if self._plane is None:
                self._plane = SharedDataPlane()
            for shard_id, selector_cls, (arrays, meta) in exports:
                planes[shard_id] = (self._plane.publish(arrays, meta), selector_cls)
            self._shard_planes = planes
            self._dirty_plane_shards = set()
            return self._shard_planes

    def _invalidate_planes_locked(
        self, shard_ids: Optional[Sequence[int]] = None
    ) -> None:
        """Mark shard planes stale; caller holds the layout lock.

        With ``shard_ids`` only those shards are marked dirty — unchanged
        shards keep their published plane (payload files stay on disk and
        worker processes keep their mmap views).  Without, the whole layout
        changed: every plane is dropped and the disabled flag is reset so the
        next process fan-out re-probes exportability from scratch.
        """
        if (
            shard_ids is None
            or self._shard_planes is None
            or len(self._shard_planes) != self.num_shards
        ):
            self._shard_planes = None
            self._dirty_plane_shards = set()
        else:
            self._dirty_plane_shards.update(int(i) for i in shard_ids)
        self._plane_disabled = False

    def _fan_out(
        self, op: str, payload: Tuple, task: Callable[[SimilaritySelector], Any]
    ) -> Tuple[List[Any], ShardAssignment]:
        """Run one op on every shard, where :func:`fan_out_mode` says: on
        worker processes over published planes, on the thread pool, or as a
        loop on this thread.  All three execute the same selector code, so
        their results are interchangeable bit for bit.

        The (shards, assignment, planes) triple is captured under the layout
        lock so a concurrent rebalance commit cannot tear it; the shard
        compute itself runs outside the lock.  Returns the captured
        assignment so the caller merges local ids against the layout that
        actually answered.
        """
        with self._lock:
            shards = list(self._shards)
            assignment = self._assignment
            planes = self._ensure_planes()
        mode = fan_out_mode(
            self.parallel,
            len(shards),
            planes is not None,
            usable_cores(),
            self._meter.mean(op),
        )
        self._meter.ran(mode)
        if mode != "process":
            return self._map_shards(op, task, shards, mode), assignment
        runtime = self.runtime if self.runtime is not None else default_runtime()
        pool = runtime.pool(
            SHARD_PROCESS_POOL, num_workers=len(planes), backend="process"
        )
        handles = [
            pool.submit(_plane_shard_task, handle, selector_cls, op, shard_id, payload)
            for shard_id, (handle, selector_cls) in enumerate(planes)
        ]
        return [handle.result() for handle in handles], assignment

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
            "query", (record, threshold), lambda shard: shard.query(record, threshold)
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
            (list(records), list(thresholds)),
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
            "cardinality",
            (record, threshold),
            lambda shard: shard.cardinality(record, threshold),
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
            (record, thresholds),
            lambda shard: shard.cardinality_curve(record, thresholds),
        )
        return np.sum(curves, axis=0).astype(np.int64)

    def rebuild(self, dataset: Sequence) -> "ShardedSelector":
        return ShardedSelector(
            dataset,
            self.selector_factory,
            partitioner=self.partitioner,
            parallel=self.parallel,
            runtime=self.runtime,
            backend=self.backend,
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
        The ``runtime`` reference persists as an object (its own hooks drop
        the live pools), preserving runtime-sharing identity across restore:
        an engine and its sharded selectors restore onto ONE runtime, and the
        shard pool is rebuilt lazily on the first parallel fan-out.  Plane
        state (temp files + handles into them), the layout lock, the fan-out
        meter (advisory; re-learned by the first fan-out), and an in-flight
        rebalance journal are likewise dropped — a restored selector serves
        the committed layout.
        """
        state = dict(self.__dict__)
        state["_dataset"] = self.dataset  # materialize if delta-stale
        state["_dataset_stale"] = False
        state.pop("selector_factory", None)
        state.pop("_lock", None)
        state["_plane"] = None
        state["_shard_planes"] = None
        state["_plane_disabled"] = False
        state["_dirty_plane_shards"] = set()
        state["_journal"] = None
        state.pop("_meter", None)
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.selector_factory = self._rebuild_shard
        self._lock = threading.RLock()
        self._meter = _FanOutMeter()

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
        delta support.  Untouched shards are not even looked at, and only the
        touched shards' published planes are invalidated.

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
            self._invalidate_planes_locked(routing.touched_shards)
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
    def _compact_shard(self, shard_id: int) -> int:
        """Compact one shard and refresh its plane."""
        with self._lock:
            shard = self._shards[shard_id]
            reclaimed = shard.compact()
            if reclaimed:
                self._invalidate_planes_locked([shard_id])
            return reclaimed

    def compact(self) -> int:
        """Synchronously compact every shard; returns total rows reclaimed.
        Between calls each shard's forced-compaction bound (synchronous,
        amortized O(Δ)) keeps its tombstones bounded."""
        reclaimed = 0
        with self._lock:
            for shard_id in range(self.num_shards):
                reclaimed += self._compact_shard(shard_id)
        return reclaimed

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
            self._invalidate_planes_locked()
            journal, self._journal = self._journal, None
            for operation in journal:
                self.apply_operation(operation)
            return len(journal)
