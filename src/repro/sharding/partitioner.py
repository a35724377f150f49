"""Partitioning dataset records across shards.

:func:`assign_shards` maps records to shard ids by a stable content hash of
the record (the serving layer's :func:`~repro.serving.default_record_key`
bytes), so a record always lands on the same shard regardless of arrival
order; the shard count is the only setting.  A :class:`ShardAssignment` is
the materialized mapping the sharded selector and a rebalance share: for
every *global* record id it knows the shard and the *local* id inside that
shard, and per shard it keeps the ascending list of global ids.  Local ids
follow global order within each shard, so applying a routed per-shard update
(:mod:`repro.sharding.selector`) keeps both views consistent.

Correctness never depends on the partitioning: the sharded selector answers
by exact fan-out + merge, so any assignment yields bit-identical results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from ..serving.registry import default_record_key


@dataclass
class ShardAssignment:
    """Materialized record → shard mapping with both global and local views."""

    num_shards: int
    #: Shard id of every global record id, shape ``(n,)``.
    shard_of: np.ndarray
    #: Local id (position inside its shard) of every global record id.
    local_of: np.ndarray
    #: Per shard, the ascending global ids it holds (``global_ids[s][l]``
    #: inverts ``local_of``).
    global_ids: List[np.ndarray]

    @classmethod
    def from_shard_of(cls, shard_of: np.ndarray, num_shards: int) -> "ShardAssignment":
        shard_of = np.asarray(shard_of, dtype=np.int64)
        if shard_of.size and (shard_of.min() < 0 or shard_of.max() >= num_shards):
            raise ValueError(f"shard ids must lie in [0, {num_shards})")
        global_ids = [np.flatnonzero(shard_of == shard) for shard in range(num_shards)]
        local_of = np.empty(len(shard_of), dtype=np.int64)
        for ids in global_ids:
            local_of[ids] = np.arange(len(ids), dtype=np.int64)
        return cls(
            num_shards=num_shards,
            shard_of=shard_of,
            local_of=local_of,
            global_ids=global_ids,
        )

    def with_inserts(self, new_shard_of: np.ndarray) -> "ShardAssignment":
        """O(Δ) extension: Δ appended records join their shards at the tail.

        The new global ids are ``len(self) .. len(self)+Δ-1`` — larger than
        every existing id — so giving each appended record the next local id
        in its shard preserves the "local ids follow global order" invariant
        without touching any existing directory entry.
        """
        new_shard_of = np.asarray(new_shard_of, dtype=np.int64)
        if new_shard_of.size == 0:
            return self
        if new_shard_of.min() < 0 or new_shard_of.max() >= self.num_shards:
            raise ValueError(f"shard ids must lie in [0, {self.num_shards})")
        start = len(self.shard_of)
        sizes = np.asarray(self.shard_sizes(), dtype=np.int64)
        new_local = np.empty(len(new_shard_of), dtype=np.int64)
        global_ids = list(self.global_ids)
        for shard in np.unique(new_shard_of):
            mask = new_shard_of == shard
            count = int(mask.sum())
            new_local[mask] = np.arange(sizes[shard], sizes[shard] + count)
            global_ids[int(shard)] = np.concatenate(
                [global_ids[int(shard)], start + np.flatnonzero(mask)]
            )
        return ShardAssignment(
            num_shards=self.num_shards,
            shard_of=np.concatenate([self.shard_of, new_shard_of]),
            local_of=np.concatenate([self.local_of, new_local]),
            global_ids=global_ids,
        )

    def __len__(self) -> int:
        return len(self.shard_of)

    def shard_sizes(self) -> List[int]:
        return [len(ids) for ids in self.global_ids]

    def to_global(self, shard: int, local_ids: Sequence[int]) -> np.ndarray:
        """Translate shard-local match ids back to global record ids."""
        return self.global_ids[shard][np.asarray(local_ids, dtype=np.int64)]


def assign_shards(records: Sequence[Any], num_shards: int) -> np.ndarray:
    """Shard id per record: a stable content hash of its
    :func:`~repro.serving.default_record_key` bytes, so a record always lands
    on the same shard regardless of arrival order."""
    return np.asarray(
        [
            int.from_bytes(
                hashlib.blake2b(default_record_key(record), digest_size=8).digest(),
                "big",
            )
            % num_shards
            for record in records
        ],
        dtype=np.int64,
    )
