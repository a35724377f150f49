"""Read replicas spawned from one engine snapshot.

A :class:`ReplicaSet` restores N independent engines from a single snapshot
directory and routes queries across them.  Because each replica is a full,
isolated restore (own indexes, own serving service, own curve cache, own
feedback windows), replicas never contend on shared state — the unit of
horizontal *read* scale-out, composing with the sharding layer: snapshot an
engine whose attributes are sharded and every replica restores the full
shard fan-out, a shard × replica topology.

Routing is deterministic under a seed: ``round_robin`` strides a cursor,
``least_loaded`` picks the replica with the fewest routed queries (ties to
the lowest index), ``random`` draws from a seeded generator — two replica
sets built with the same snapshot, policy, and seed route identically.

Replicas are **read-only** by design: updates go to the primary engine, which
is snapshotted and respawned (or rolled, one replica at a time).  The routing
layer exports per-replica query counts through the same
:class:`~repro.serving.ServingTelemetry` machinery the serving layer uses, so
load balance is inspectable exactly like endpoint traffic.

With ``backend="process"`` (:meth:`ReplicaSet.from_snapshot`) the replicas
live in forked worker processes instead of the parent: the parent keeps ONE
mmap'd engine for planning/explain, and each worker lazily mmap-loads its own
engine from the same snapshot on its first share — N processes, one physical
copy of the array pages, true multicore execution.  Replica ids become pure
routing labels (every worker's engine is a restore of the same snapshot, so
answers are identical wherever a share lands).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import span
from ..runtime import POOL_BACKENDS, Runtime, fork_available
from ..serving import ServingTelemetry
from .format import PathLike
from .snapshot import load_engine, load_engine_replicas

ROUTING_POLICIES = ("round_robin", "least_loaded", "random")

#: Runtime pool name replica fan-out runs on.
REPLICA_POOL = "replicas"

#: Distinct pool name for the process-backend fan-out (pool configuration is
#: first-acquisition-wins; never contend with a thread ``"replicas"`` pool).
REPLICA_PROCESS_POOL = "replicas-proc"

#: Worker-process engine cache: snapshot path -> mmap-restored engine.  Each
#: worker loads an engine at most once per snapshot; the arrays are read-only
#: memmap views, so every worker on the box shares the payload pages.
_PROCESS_ENGINES: Dict[str, Any] = {}


def _execute_replica_share(snapshot_path: str, queries: List[Any]) -> List[Any]:
    """One replica share inside a worker process (module-level: picklable)."""
    engine = _PROCESS_ENGINES.get(snapshot_path)
    if engine is None:
        engine = load_engine(snapshot_path, mmap=True)
        _PROCESS_ENGINES[snapshot_path] = engine
    return engine.execute_many(queries)


class ReplicaSet:
    """Routes queries across engines restored from one snapshot."""

    def __init__(
        self,
        replicas: Sequence[Any],
        routing: str = "round_robin",
        seed: int = 0,
        runtime: Optional[Runtime] = None,
        backend: str = "thread",
        snapshot_path: Optional[str] = None,
        num_replicas: Optional[int] = None,
    ) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; choose from {ROUTING_POLICIES}"
            )
        if backend not in POOL_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {POOL_BACKENDS}"
            )
        if backend == "process" and snapshot_path is None:
            raise ValueError(
                "backend='process' needs the snapshot path workers load their "
                "engines from; build the set with ReplicaSet.from_snapshot"
            )
        self.replicas = replicas
        self.routing = routing
        self.seed = int(seed)
        self.backend = backend
        self.snapshot_path = None if snapshot_path is None else str(snapshot_path)
        #: Routing targets.  Thread mode: the in-process engines.  Process
        #: mode: worker slots (the parent holds one engine for planning).
        self.num_replicas = len(replicas) if num_replicas is None else int(num_replicas)
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if backend == "thread" and self.num_replicas != len(replicas):
            raise ValueError(
                f"num_replicas={self.num_replicas} disagrees with the "
                f"{len(replicas)} supplied replicas"
            )
        self.telemetry = ServingTelemetry()
        self._counts = [0] * self.num_replicas
        self._cursor = 0
        self._rng = np.random.default_rng(self.seed)
        #: The execution substrate replica fan-out runs on.  Default: a
        #: runtime of its own, reporting pool telemetry alongside the
        #: per-replica routing counters; inject one to share workers with
        #: other components (e.g. a sharded primary on the same box).
        self.runtime = runtime if runtime is not None else Runtime(self.telemetry)

    @classmethod
    def from_snapshot(
        cls,
        path: PathLike,
        num_replicas: int,
        routing: str = "round_robin",
        seed: int = 0,
        runtime: Optional[Runtime] = None,
        backend: str = "thread",
        mmap: bool = False,
    ) -> "ReplicaSet":
        """Spawn ``num_replicas`` independent engines from one snapshot.

        The snapshot is read and checksum-verified once; each replica decodes
        its own object graph from the shared bytes (no objects shared).
        ``mmap=True`` restores replica arrays as read-only views over one
        mapped payload (O(metadata) per extra replica).  ``backend="process"``
        skips restoring in-process engines beyond one planning copy: shares
        execute in forked workers that mmap-load the snapshot themselves.  On
        platforms without ``fork`` it silently degrades to the thread backend
        (engines restored in-process), same results, no multicore.
        """
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if backend == "process" and not fork_available():
            backend = "thread"
        if backend == "process":
            return cls(
                [load_engine(path, mmap=True)],
                routing=routing,
                seed=seed,
                runtime=runtime,
                backend="process",
                snapshot_path=str(path),
                num_replicas=num_replicas,
            )
        return cls(
            load_engine_replicas(path, num_replicas, mmap=mmap),
            routing=routing,
            seed=seed,
            runtime=runtime,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_replicas

    def _pick(self) -> int:
        """Choose a replica for one query and account for it immediately, so
        ``least_loaded`` balances within a batch, not only across batches."""
        if self.routing == "round_robin":
            index = self._cursor
            self._cursor = (self._cursor + 1) % self.num_replicas
        elif self.routing == "least_loaded":
            index = int(np.argmin(self._counts))  # argmin ties → lowest index
        else:  # random, seeded
            index = int(self._rng.integers(0, self.num_replicas))
        self._counts[index] += 1
        return index

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def explain(self, query: Any):
        """Plan on replica 0 without counting it as load — restored replicas
        are identical, so every replica plans every query the same way."""
        return self.replicas[0].explain(query)

    def execute(self, query: Any):
        """Route one query to one replica."""
        return self.execute_many([query])[0]

    def execute_many(self, queries: Sequence[Any]) -> List[Any]:
        """Route a workload: pick per query, then execute each replica's share
        as ONE batched call (planning stays micro-batched per replica),
        fanning the per-replica batches out on a thread pool.

        Replicas share no state (each is a fully independent restore), so
        concurrent execution is safe.  Whether the thread fan-out is *faster*
        than running the shares in turn is not measured: plan execution is
        interpreter-bound, and the engine's own two fan-outs lost to the
        calling thread at every size where their work stayed in the
        interpreter (README, *Runtime & concurrency*).  No end-to-end
        workload reaches this method yet; it dispatches as it always has
        until one does and the same measurement can be made here."""
        queries = list(queries)
        picks = [self._pick() for _ in queries]
        results: List[Any] = [None] * len(queries)
        shares = [
            (index, [i for i, pick in enumerate(picks) if pick == index])
            for index in sorted(set(picks))
        ]

        def run(share: "Tuple[int, List[int]]"):
            index, positions = share
            start = time.perf_counter()
            with span("replica.share", replica=index, queries=len(positions)):
                try:
                    answered = self.replicas[index].execute_many(
                        [queries[i] for i in positions]
                    )
                except Exception as error:  # re-raised on the caller's thread
                    return index, positions, error, time.perf_counter() - start
            return index, positions, answered, time.perf_counter() - start

        with span("replica.fanout", shares=len(shares), backend=self.backend):
            if self.backend == "process":
                # Each share ships (snapshot path, queries) to a forked
                # worker; the worker mmap-loads the engine once and executes
                # on its own core.  Elapsed includes queue wait — the latency
                # the caller saw.  Trace context rides the task envelope, so
                # the workers' spans re-parent under this fan-out when traced.
                pool = self.runtime.pool(
                    REPLICA_PROCESS_POOL,
                    num_workers=self.num_replicas,
                    backend="process",
                )
                submitted = []
                for index, positions in shares:
                    start = time.perf_counter()
                    handle = pool.submit(
                        _execute_replica_share,
                        self.snapshot_path,
                        [queries[i] for i in positions],
                    )
                    submitted.append((index, positions, start, handle))
                outcomes = []
                for index, positions, start, handle in submitted:
                    try:
                        answered: Any = handle.result()
                    except Exception as error:  # accounted like thread errors
                        answered = error
                    outcomes.append(
                        (index, positions, answered, time.perf_counter() - start)
                    )
            elif len(shares) <= 1:
                outcomes = [run(share) for share in shares]
            else:
                # Shared runtime pool, rebuilt lazily after a restore (``run``
                # returns errors as values, so map() itself never raises
                # here).
                pool = self.runtime.pool(REPLICA_POOL, num_workers=self.num_replicas)
                outcomes = pool.map(run, shares)
        # Telemetry is recorded on the caller's thread so routing counters
        # and telemetry move together.  A failing share fails
        # the batch, but only AFTER every share finished: successful shares
        # keep their telemetry, the failed share's queries are rolled out of
        # the load counts (that work never happened — leaving it in would
        # skew least_loaded routing and diverge query_counts from telemetry
        # forever), and the first error is re-raised.
        first_error: "Exception | None" = None
        for index, positions, answered, elapsed in outcomes:
            if isinstance(answered, Exception):
                self._counts[index] -= len(positions)
                if first_error is None:
                    first_error = answered
                continue
            name = self.replica_name(index)
            self.telemetry.record_requests(name, len(positions), 0, 0)
            self.telemetry.record_batch(name, len(positions))
            self.telemetry.record_latency(name, elapsed)
            for position, result in zip(positions, answered):
                results[position] = result
        if first_error is not None:
            raise first_error
        return results

    def __snapshot_state__(self) -> Dict[str, Any]:
        """A replica set is itself snapshottable; its runtime persists as an
        object whose own hooks drop the live pools (rebuilt lazily on the
        next batched execute)."""
        return dict(self.__dict__)

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Writes are refused
    # ------------------------------------------------------------------ #
    def apply_update(self, *args: Any, **kwargs: Any) -> None:
        raise RuntimeError(
            "a ReplicaSet is read-only: apply updates to the primary engine, "
            "save a fresh snapshot, and respawn the replicas from it"
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @staticmethod
    def replica_name(index: int) -> str:
        """Telemetry endpoint name of replica ``index``."""
        return f"replica{index}"

    def query_counts(self) -> List[int]:
        """Queries routed to each replica so far (the load-balance view)."""
        return list(self._counts)

    def stats(self) -> Dict[str, Any]:
        return {
            "routing": self.routing,
            "seed": self.seed,
            "replicas": self.num_replicas,
            "backend": self.backend,
            "query_counts": self.query_counts(),
            "telemetry": self.telemetry.snapshot(),
        }
