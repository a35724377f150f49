"""Exact Jaccard-distance selection from posting arrays: exact overlaps, no per-row verify.

Stored, over *physical* rows: ``_sizes`` (int64 set sizes) and ``_postings``,
token → the ids of the rows holding it (one posting array per distinct token;
tokens are arbitrary hashables).  A probe with similarity threshold
``s = 1 - θ`` adds 1 to ``overlap[posting]`` once per query token — row ids
inside a posting are unique, so ``overlap`` is the *exact* intersection size
of every row sharing a token — and the similarity of those rows is
``overlap / (|x| + |y| - overlap)``: the same integers
:func:`repro.distances.jaccard.jaccard_similarity` divides, so the same float.
The only Python loop runs over the query's own tokens.

Filters applied to the rows that share a token (or, for the empty query, the
empty rows — two empty sets are identical by convention):

* the tombstone mask;
* size filter: ``s · |x| <= |y| <= |x| / s``;
* the exact predicate, :func:`~repro.distances.base.within` on
  ``1 - similarity`` — the float :class:`JaccardDistance` yields.

The class keeps its historical name, but with exact overlaps in hand a prefix
restriction has nothing left to save: there is no global token order and no
prefix computation.  When a distance of 1 is within θ every live row matches.

Updates are O(Δ): an insert appends the new rows' sizes and one block of row
ids per distinct token of the batch; deletes tombstone rows (see
:mod:`repro.selection.delta`).  The sets themselves (``_phys_records``) are
the store :meth:`rows_at` reads; both arrays derive from them, so snapshots
persist only the sets.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..distances.base import within
from ..distances.jaccard import JaccardDistance, as_frozenset
from .base import SimilaritySelector
from .delta import DeltaIndexMixin, GrowableArray, extend_postings


class PrefixFilterJaccardSelector(DeltaIndexMixin, SimilaritySelector):
    """Token posting arrays + size filter; similarities from exact overlap counts."""

    distance = JaccardDistance()
    _SNAPSHOT_DROP = ("_sizes", "_postings")

    def __init__(self, dataset: Sequence) -> None:
        self._phys_records: List[frozenset] = [as_frozenset(record) for record in dataset]
        self._restore_derived()
        self._init_delta(len(self._phys_records))

    def _probe(self, record, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """(ascending logical ids, their exact Jaccard distances) within ``threshold``."""
        query_set = as_frozenset(record)
        query_size = len(query_set)
        similarity_threshold = 1.0 - float(threshold)
        sizes = self._sizes.view()
        overlap = np.zeros(sizes.size, dtype=np.int64)  # per call: probes run concurrently
        for token in query_set:
            posting = self._postings.get(token)
            if posting is not None:
                overlap[posting.view()] += 1

        if within(1.0, threshold):
            rows = np.arange(sizes.size)
        else:
            rows = np.flatnonzero(overlap if query_size else sizes == 0)
        size, shared = sizes[rows], overlap[rows]
        union = query_size + size - shared
        similarity = np.divide(shared, union, out=np.ones(rows.size), where=union > 0)
        distances = 1.0 - similarity
        keep = within(distances, threshold)
        if similarity_threshold > 0.0:
            keep &= size >= similarity_threshold * query_size - 1e-9
            keep &= size <= query_size / similarity_threshold + 1e-9
        if not self._view.is_compact:
            keep &= self._view.alive_rows[rows]
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
