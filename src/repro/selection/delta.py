"""O(Δ) delta maintenance for exact selectors: append segments + tombstones.

Every selector keeps its index over a *physical* row space that only ever
grows: ``insert_many`` appends Δ rows to capacity-doubling stores
(:class:`GrowableArray`) and ``delete_many`` flips bits in a tombstone mask
(:class:`TombstoneView`) — neither touches the existing index, so maintenance
cost is proportional to the delta, not the dataset (the LSM tradeoff: scans
and candidate sets include tombstoned rows until compaction reclaims them).
Logical ids (what callers see: positions in the live dataset) map to physical
rows through the view; query paths mask candidates with the alive bitmap and
translate survivors back, allocating only candidate-sized temporaries — never
an O(physical) copy.

The physical store plus the view is the one copy of an attribute's rows:
there is no logical record list beside it.  :meth:`DeltaIndexMixin.rows_at`
gathers rows from the store at ``live_physical[ids]``, a delete reads the
rows it removes that way, and ``dataset`` is that gather over every live id,
computed on each read.  A snapshot persists the compacted store, and the
view as its row count.

Two deliberately-not-O(Δ) pieces, called out for honesty:

* the logical→physical directory is a lazy ``np.flatnonzero`` over the alive
  bitmap — a vectorized word-wide sweep (~µs at 10⁵ rows) recomputed after a
  delete, amortized across the queries that follow;
* compaction (:meth:`DeltaIndexMixin.compact`) is a from-scratch rebuild over
  the live records.  A :class:`CompactionPolicy` bounds tombstone debt: past
  ``force_ratio`` the next update compacts synchronously, so the amortized
  per-row update cost stays O(Δ).

Bit-identity with ``rebuild``: every selector here answers by exact
verification — filters (prefixes, signatures, pivots, pigeonhole buckets) are
necessary conditions only — so any physical layout that preserves the live
records and their relative order returns byte-identical answers.  Appends
preserve relative order and tombstones only remove rows, so delta state is
bit-identical to a from-scratch build by construction; the test suite pins it
on all four distances anyway.

This module is the one sanctioned home of ``rebuild`` calls on the update
path (:func:`rebuild_in_place`); rule RPR010 keeps everyone else honest.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CompactionPolicy",
    "DeltaIndexMixin",
    "GrowableArray",
    "TombstoneView",
    "check_delete_positions",
    "extend_postings",
    "rebuild_in_place",
    "resolve_delete_positions",
]


class GrowableArray:
    """Amortized-O(Δ) append-only array store with capacity doubling.

    Wraps one numpy array (1-D values or 2-D rows); :meth:`append` costs
    O(Δ) amortized because reallocation doubles capacity.  :meth:`view` is a
    zero-copy slice of the first ``count`` entries.  Duck-types as an array
    (``__array__``/``__getitem__``) so read-side callers never notice the
    wrapper.  Snapshot hooks store the trimmed view, so snapshots carry no
    capacity slack.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self._rows = np.ascontiguousarray(rows)
        self._count = len(self._rows)

    @property
    def count(self) -> int:
        return self._count

    def view(self) -> np.ndarray:
        return self._rows[: self._count]

    def append(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=self._rows.dtype)
        if rows.shape[1:] != self._rows.shape[1:]:
            raise ValueError(
                f"appended rows have shape {rows.shape[1:]}, store holds {self._rows.shape[1:]}"
            )
        need = self._count + len(rows)
        if need > len(self._rows):
            capacity = max(need, 2 * len(self._rows), 8)
            grown = np.empty((capacity,) + self._rows.shape[1:], dtype=self._rows.dtype)
            grown[: self._count] = self._rows[: self._count]
            self._rows = grown
        self._rows[self._count : need] = rows
        self._count = need

    def widen(self, width: int, fill) -> None:
        """Pad the rows of a 2-D store with ``fill`` up to ``width`` columns.

        One O(n) copy per call that actually widens; a store only ever widens
        to a new maximum, so the copies total at most the final matrix size.
        """
        if width > self._rows.shape[1]:
            grown = np.full((len(self._rows), width), fill, dtype=self._rows.dtype)
            grown[: self._count, : self._rows.shape[1]] = self.view()
            self._rows = grown

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, item):
        return self.view()[item]

    def __array__(self, dtype=None, copy=None):
        out = self.view()
        if dtype is not None and out.dtype != dtype:
            return out.astype(dtype)
        if copy:
            return out.copy()
        return out

    def __snapshot_state__(self):
        return {"_rows": self.view().copy(), "_count": self._count}

    def __snapshot_restore__(self, state) -> None:
        self.__dict__.update(state)


def extend_postings(
    postings: Dict[Hashable, GrowableArray], entries: Iterable[Tuple[Hashable, Any]]
) -> None:
    """Append ``(key, row)`` entries to posting arrays: ONE append per distinct key.

    A posting array holds int64 rows in arrival order — physical row ids, or
    ``(row id, multiplicity)`` pairs — so a batch costs one array append per
    key it touches, however many rows carry that key.
    """
    grouped: Dict[Hashable, list] = defaultdict(list)
    for key, row in entries:
        grouped[key].append(row)
    for key, rows in grouped.items():
        rows = np.asarray(rows, dtype=np.int64)
        if key in postings:
            postings[key].append(rows)
        else:
            postings[key] = GrowableArray(rows)


class TombstoneView:
    """Alive bitmap over physical rows + lazy logical→physical directory."""

    def __init__(self, physical_count: int) -> None:
        self._alive = GrowableArray(np.ones(int(physical_count), dtype=bool))
        self._live_count = int(physical_count)
        self._live: "np.ndarray | None" = None  # lazy flatnonzero cache

    @property
    def physical_count(self) -> int:
        return self._alive.count

    @property
    def live_count(self) -> int:
        return self._live_count

    @property
    def tombstone_count(self) -> int:
        return self._alive.count - self._live_count

    @property
    def is_compact(self) -> bool:
        return self.tombstone_count == 0

    @property
    def alive_rows(self) -> np.ndarray:
        """Bool mask over physical rows; index with candidate ids to filter."""
        return self._alive.view()

    @property
    def live_physical(self) -> np.ndarray:
        """Sorted physical row ids of the live records (logical order)."""
        if self._live is None:
            self._live = np.flatnonzero(self._alive.view()).astype(np.int64, copy=False)
        return self._live

    def append(self, count: int) -> None:
        """Admit ``count`` new physical rows at the end of the physical space."""
        self._alive.append(np.ones(int(count), dtype=bool))
        self._live_count += int(count)
        self._live = None

    def delete_logical(self, positions: np.ndarray) -> np.ndarray:
        """Tombstone the rows at these logical positions; returns physical ids."""
        physical = self.live_physical[np.asarray(positions, dtype=np.int64)]
        self._alive.view()[physical] = False
        self._live_count -= len(physical)
        self._live = None
        return physical

    def to_logical(self, physical_ids: np.ndarray) -> np.ndarray:
        """Logical positions of live physical ids (order-preserving)."""
        if self.is_compact:
            return physical_ids
        return np.searchsorted(self.live_physical, np.asarray(physical_ids, dtype=np.int64))


@dataclass(frozen=True)
class CompactionPolicy:
    """When to reclaim tombstones.

    ``force_ratio`` is the tombstone share at which the next update compacts
    synchronously (once at least ``min_tombstones`` rows are dead), bounding
    scan overhead at a constant factor and keeping amortized update cost O(Δ).
    """

    force_ratio: float = 0.5
    min_tombstones: int = 64

    def must(self, view: TombstoneView) -> bool:
        tombstones = view.tombstone_count
        return (
            tombstones >= self.min_tombstones
            and tombstones >= self.force_ratio * max(1, view.physical_count)
        )


def check_delete_positions(live_count: int, positions: Iterable[int]) -> np.ndarray:
    """Validate delete positions strictly; returns them sorted ascending.

    Raises ``IndexError`` for positions outside the live dataset (deleting a
    missing id must fail loudly, not silently no-op) and ``ValueError`` for
    duplicates (one position can only be deleted once).  An empty request
    returns an empty array: the caller treats it as a no-op.
    """
    positions = np.asarray(list(positions), dtype=np.int64)
    if positions.size == 0:
        return positions
    if positions.min() < 0 or positions.max() >= live_count:
        bad = positions[(positions < 0) | (positions >= live_count)]
        raise IndexError(
            f"delete position {int(bad[0])} out of range for {live_count} live records"
        )
    positions = np.sort(positions)
    if np.any(positions[1:] == positions[:-1]):
        duplicate = positions[1:][positions[1:] == positions[:-1]][0]
        raise ValueError(f"duplicate delete position {int(duplicate)}")
    return positions


def resolve_delete_positions(live_count: int, positions: Iterable[int]) -> np.ndarray:
    """What a lenient delete list means: the distinct positions within
    ``[0, live_count)``, sorted ascending.

    One meaning for every entry point that forgives — the engine's
    ``apply_update``, ``IncrementalUpdateManager.process``,
    ``ShardedSelector.route_operation`` and
    :func:`repro.datasets.updates.apply_operation`: a repeated position names
    one row, a position outside the list names none.  The result is ready for
    the strict :meth:`DeltaIndexMixin.delete_many`.
    """
    positions = np.unique(np.asarray(list(positions), dtype=np.int64))
    return positions[(positions >= 0) & (positions < live_count)]


#: Attributes that survive a :func:`rebuild_in_place`: logical-mutation
#: accounting and any per-instance policy override.
_PRESERVED_ATTRS = ("_mutations", "compaction_policy")


def rebuild_in_place(selector, records: Sequence) -> None:
    """Replace ``selector``'s state with a from-scratch build over ``records``.

    The one sanctioned ``rebuild`` call site on the update path (everything
    else is RPR010): used to bootstrap an empty selector (where the delta IS
    the dataset, so the build is O(Δ)) and to compact.  In-place — the caller
    keeps every reference to the selector object valid.
    """
    preserved = {
        key: selector.__dict__[key] for key in _PRESERVED_ATTRS if key in selector.__dict__
    }
    fresh = selector.rebuild(records)
    selector.__dict__.clear()
    selector.__dict__.update(fresh.__dict__)
    selector.__dict__.update(preserved)


class DeltaIndexMixin:
    """insert_many/delete_many/compact/rows_at for selectors with physical row stores.

    List the mixin FIRST in the bases (``class X(DeltaIndexMixin,
    SimilaritySelector)``) so its ``__len__`` and update protocol win the MRO.
    The physical store plus the :class:`TombstoneView` is the one copy of the
    rows: :meth:`rows_at` gathers from it and ``dataset`` is computed from it
    on each read.  A selector's ``__init__`` builds its store and index
    eagerly over the full dataset and finishes with :meth:`_init_delta`; the
    physical row space then equals the logical one until the first update.
    Subclasses hook :meth:`_normalize_record`, :meth:`_gather` (read physical
    rows back; the default reads a ``_phys_records`` list), :meth:`_delta_insert`
    (append Δ rows to the store and the index) and :meth:`_delta_delete`
    (usually a no-op — the tombstone mask already hides the rows), and list
    index-derived caches in ``_SNAPSHOT_DROP`` + recompute them in
    :meth:`_restore_derived`.
    """

    #: Index-derived attributes dropped from snapshots (recomputed on restore).
    _SNAPSHOT_DROP: tuple = ()

    compaction_policy = CompactionPolicy()

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def _init_delta(self, count: int) -> None:
        """Adopt the eagerly-built store of ``count`` rows as physical ==
        logical; call last in __init__."""
        self._view = TombstoneView(count)
        self._mutations = 0

    def __len__(self) -> int:
        return self._view.live_count

    def rows_at(self, ids) -> Sequence:
        """The live rows at these logical ids, gathered from the physical store."""
        ids = np.asarray(ids, dtype=np.int64)
        return self._gather(ids if self._view.is_compact else self._view.live_physical[ids])

    def delta_stats(self) -> dict:
        return {
            "live": self._view.live_count,
            "physical": self._view.physical_count,
            "tombstones": self._view.tombstone_count,
            "mutations": self._mutations,
        }

    def _live_rows(self, rows: np.ndarray) -> np.ndarray:
        """Live (logical-order) rows of a physical store — zero-copy when compact."""
        if self._view.is_compact:
            return rows
        return rows[self._view.live_physical]

    # ------------------------------------------------------------------ #
    # Update path
    # ------------------------------------------------------------------ #
    def insert_many(self, records: Sequence) -> int:
        """Append records; O(Δ) amortized index maintenance."""
        records = [self._normalize_record(record) for record in records]
        if not records:
            return 0
        if self._view.live_count == 0:
            # Bootstrap: with no live rows the delta IS the dataset, so a
            # from-scratch build over it is itself O(Δ) — and it re-derives
            # dataset-dependent layout (dimension, pivots) cleanly.
            rebuild_in_place(self, records)
        else:
            # The store and index first: a batch they refuse leaves no row behind.
            start = self._view.physical_count
            self._delta_insert(records, np.arange(start, start + len(records), dtype=np.int64))
            self._view.append(len(records))
        self._mutations += 1
        self._maybe_force_compact()
        return len(records)

    def delete_many(self, positions: Iterable[int]) -> int:
        """Tombstone the records at these logical positions; O(Δ) + bitmap sweep.

        Strict: out-of-range positions raise ``IndexError``, duplicates raise
        ``ValueError``, an empty request is a no-op.
        """
        positions = check_delete_positions(self._view.live_count, positions)
        if positions.size == 0:
            return 0
        physical_ids = self._view.delete_logical(positions)
        self._delta_delete(physical_ids)
        self._mutations += 1
        self._maybe_force_compact()
        return int(positions.size)

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> int:
        """Reclaim tombstones with a from-scratch rebuild; returns rows reclaimed."""
        reclaimed = self._view.tombstone_count
        if reclaimed == 0:
            return 0
        rebuild_in_place(self, self.dataset)
        return reclaimed

    def _maybe_force_compact(self) -> None:
        if self.compaction_policy.must(self._view):
            self.compact()

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    def _normalize_record(self, record: Any) -> Any:
        return record

    def _gather(self, physical_ids: np.ndarray) -> Sequence:
        """The rows at these physical ids, from a ``_phys_records`` list."""
        records = self._phys_records
        return [records[i] for i in physical_ids.tolist()]

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        """Append Δ rows to the store and the index (physical ids pre-assigned)."""
        self._phys_records.extend(records)

    def _delta_delete(self, physical_ids: np.ndarray) -> None:
        """React to tombstoned rows; default no-op — the mask hides them."""

    def _restore_derived(self) -> None:
        """Recompute ``_SNAPSHOT_DROP`` attributes after a snapshot restore."""

    # ------------------------------------------------------------------ #
    # Snapshot hooks (shared by every delta selector)
    # ------------------------------------------------------------------ #
    def __snapshot_state__(self) -> dict:
        # Compact first: the snapshot then carries the compacted store and no
        # tombstones — a from-scratch build's state, whose view is its count.
        self.compact()
        if not self._view.is_compact:
            raise ValueError("a view with tombstones is not snapshotted; compact first")
        state = dict(self.__dict__)
        for attr in self._SNAPSHOT_DROP:
            state.pop(attr, None)
        state["_view"] = self._view.live_count
        return state

    def __snapshot_restore__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._view = TombstoneView(state["_view"])
        self._restore_derived()
