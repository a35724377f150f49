"""Exact Jaccard-distance selection from posting arrays: exact overlaps, no per-row verify.

Stored, over *physical* rows: ``_sizes`` (int64 set sizes) and ``_postings``,
token → the ids of the rows holding it (one posting array per distinct token;
tokens are arbitrary hashables).  A probe with similarity threshold
``s = 1 - θ`` concatenates the postings of the query's tokens and counts them
with one ``np.bincount`` — row ids inside a posting are unique, so ``overlap``
is the *exact* intersection size of every row — and the similarity of a row
is ``overlap / (|x| + |y| - overlap)``: the same integers
:func:`repro.distances.jaccard.jaccard_similarity` divides, so the same float.
The only Python loop runs over the query's own tokens (one dict lookup each).

Filters, all necessary conditions for ``J(x, y) >= s``, with ``s`` lowered to
``1 - (θ + THETA_SLACK)`` so they admit every row :func:`within` admits:

* overlap filter: ``overlap >= s · |x|`` (the union is at least ``|x|``); it
  implies the lower size bound ``|y| >= s · |x|``, since ``|y| >= overlap``;
* size filter: ``|y| <= |x| / s``;
* the tombstone mask;
* the exact predicate, :func:`~repro.distances.base.within` on
  ``1 - similarity`` — the float :class:`JaccardDistance` yields.

The bounds carry a relative margin far above float rounding, so a row
exactly on a bound is never lost; the exact predicate decides it.  For the
empty query the overlap filter admits every row and the size filter keeps the
empty ones (two empty sets are identical by convention).  When a distance of
1 is within θ (``s <= 0``) no filter applies and every live row matches.

The class keeps its historical name, but with exact overlaps in hand a prefix
restriction has nothing left to save: there is no global token order and no
prefix computation.

Updates are O(Δ): an insert appends the new rows' sizes and one block of row
ids per distinct token of the batch; deletes tombstone rows (see
:mod:`repro.selection.delta`).  The sets themselves (``_phys_records``) are
the store :meth:`rows_at` reads; both arrays derive from them, so snapshots
persist only the sets.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..distances.base import THETA_SLACK, within
from ..distances.jaccard import JaccardDistance, as_frozenset
from .base import SimilaritySelector
from .delta import DeltaIndexMixin, GrowableArray, extend_postings

#: Relative margin on the overlap and size bounds: far above the rounding of
#: the float products they compare, so no row ``within`` admits is filtered.
_ROUNDING = 1e-9


class PrefixFilterJaccardSelector(DeltaIndexMixin, SimilaritySelector):
    """Token posting arrays + size filter; similarities from exact overlap counts."""

    distance = JaccardDistance()
    PROBE_COST_US = (34.0, 0.011, 0.055)
    _SNAPSHOT_DROP = ("_sizes", "_postings")

    def __init__(self, dataset: Sequence) -> None:
        self._phys_records: List[frozenset] = [as_frozenset(record) for record in dataset]
        self._restore_derived()
        self._init_delta(len(self._phys_records))

    def _probe(self, record, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """(ascending logical ids, their exact Jaccard distances) within ``threshold``."""
        query_set = as_frozenset(record)
        query_size = len(query_set)
        sizes = self._sizes.view()
        postings = [
            posting.view()
            for posting in map(self._postings.get, query_set)
            if posting is not None
        ]
        overlap = np.bincount(
            np.concatenate(postings) if postings else np.zeros(0, dtype=np.int64),
            minlength=sizes.size,
        )

        # The lowest similarity ``within`` admits; see the module docstring.
        similarity_floor = 1.0 - (float(threshold) + THETA_SLACK)
        if similarity_floor > 0.0:
            mask = overlap >= similarity_floor * query_size * (1.0 - _ROUNDING)
            mask &= sizes <= query_size / similarity_floor * (1.0 + _ROUNDING)
        else:
            mask = np.ones(sizes.size, dtype=bool)
        if not self._view.is_compact:
            mask &= self._view.alive_rows
        rows = np.flatnonzero(mask)
        shared = overlap[rows]
        union = query_size + sizes[rows] - shared
        similarity = np.divide(shared, union, out=np.ones(rows.size), where=union > 0)
        distances = 1.0 - similarity
        keep = within(distances, threshold)
        return self._view.to_logical(rows[keep]), distances[keep]

    def query(self, record, threshold: float) -> List[int]:
        return self._probe(record, threshold)[0].tolist()

    def _match_distances(self, record, threshold: float) -> np.ndarray:
        return self._probe(record, threshold)[1]

    def rebuild(self, dataset: Sequence) -> "PrefixFilterJaccardSelector":
        return PrefixFilterJaccardSelector(dataset)

    # ------------------------------------------------------------------ #
    # Delta maintenance hooks
    # ------------------------------------------------------------------ #
    def _normalize_record(self, record):
        return as_frozenset(record)

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        super()._delta_insert(records, physical_ids)
        self._sizes.append(np.fromiter(map(len, records), dtype=np.int64, count=len(records)))
        extend_postings(
            self._postings,
            (
                (token, physical_id)
                for physical_id, record in zip(physical_ids.tolist(), records)
                for token in record
            ),
        )

    def _restore_derived(self) -> None:
        """Index the stored sets: the insert path, run once over an empty store."""
        records, self._phys_records = self._phys_records, []
        self._sizes = GrowableArray(np.zeros(0, dtype=np.int64))
        self._postings: Dict[Hashable, GrowableArray] = {}
        self._delta_insert(records, np.arange(len(records), dtype=np.int64))
