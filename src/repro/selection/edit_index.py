"""Exact edit-distance selection: array-stored filters, one batched verification.

Everything a probe reads is stored as arrays over *physical* rows, so a probe
is a fixed number of array passes; its only Python loop runs over the query's
own distinct q-grams (and, inside the DP, its characters):

* ``_lengths`` (int64) and ``_codes`` (int32 code points, one padded row per
  string, -1 beyond its length) — the verification operand, stored once
  instead of re-encoded from Python strings on every probe;
* ``_signatures`` (uint64): each row's distinct q-grams hashed into a 64-bit
  mask with :func:`zlib.crc32` — stable across processes and hash-seed
  randomization, so a signature built elsewhere matches a query's;
* ``_postings``: q-gram → ``(row id, multiplicity)`` pairs, one posting array
  per distinct gram.

Filters, all necessary conditions for ``ed(x, y) <= θ``, so answers equal a
linear scan:

* length and liveness are one boolean mask over the physical rows,
  ``| |x| - |y| | <= θ`` and the tombstone mask; ``np.flatnonzero`` of it is
  the candidate list, ascending;
* signature: ``popcount(sig(x) & ~sig(y)) <= q·θ`` over the candidates' gathered
  signatures — one edit destroys at most ``q`` q-grams of ``x`` and every
  signature bit set for ``x`` but clear for ``y`` certifies an absent gram
  (hash collisions only weaken the filter);
* count filter: two strings within distance θ share at least
  ``max(|x|, |y|) - q + 1 - q·θ`` q-grams.  Shared counts are accumulated with
  one ``shared[rows] += min(multiplicity, m)`` per distinct query gram, and
  the pass is skipped when no survivor needs a positive count;
* verification: :func:`repro.distances.edit.levenshtein_codes` over the
  gathered code rows of the survivors.

Updates are O(Δ): an insert appends the new rows' lengths, signatures and code
rows (widening the code matrix only when a string is longer than every stored
one) and one block per distinct gram of the batch to the posting arrays;
deletes tombstone rows, which the probe mask hides (see
:mod:`repro.selection.delta`).  The strings themselves (``_phys_records``)
are the store :meth:`rows_at` reads; every array derives from them, so
snapshots persist only the strings and ``q``.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..distances.base import integer_radius
from ..distances.edit import EditDistance, levenshtein_codes, string_codes
from .base import SimilaritySelector
from .delta import DeltaIndexMixin, GrowableArray, extend_postings


def qgrams(text: str, q: int) -> Counter:
    """Multiset of q-grams of ``text`` (padded strings shorter than q count once)."""
    if len(text) < q:
        return Counter({text: 1})
    return Counter(text[i : i + q] for i in range(len(text) - q + 1))


def qgram_signature(grams: Counter) -> int:
    """64-bit bitmask of the distinct q-grams, hashed with a stable CRC32."""
    signature = 0
    for gram in grams:
        signature |= 1 << (zlib.crc32(gram.encode("utf-8")) & 63)
    return signature


class QGramEditSelector(DeltaIndexMixin, SimilaritySelector):
    """Length/signature mask + q-gram posting arrays + batched DP verification."""

    distance = EditDistance()
    PROBE_COST_US = (240.0, 0.033, 1.7)
    _SNAPSHOT_DROP = ("_lengths", "_codes", "_signatures", "_postings")

    def __init__(self, dataset: Sequence[str], q: int = 2) -> None:
        if q <= 0:
            raise ValueError("q must be positive")
        self.q = q
        self._phys_records: List[str] = [str(record) for record in dataset]
        self._restore_derived()
        self._init_delta(len(self._phys_records))

    def _signature_survivors(
        self, query_signature: int, candidates, threshold: int
    ) -> np.ndarray:
        """The candidates whose signature certifies at most q·θ absent query grams."""
        candidates = np.asarray(candidates, dtype=np.int64)
        missing = np.bitwise_count(
            np.uint64(query_signature) & ~self._signatures.view()[candidates]
        )
        return candidates[missing <= self.q * threshold]

    def _probe(self, record: str, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """(ascending logical ids, their exact distances) within ``threshold``."""
        threshold_int = integer_radius(threshold)
        record = str(record)
        query_grams = qgrams(record, self.q)
        lengths = self._lengths.view()

        mask = np.abs(lengths - len(record)) <= threshold_int
        if not self._view.is_compact:
            mask &= self._view.alive_rows
        survivors = self._signature_survivors(
            qgram_signature(query_grams), np.flatnonzero(mask), threshold_int
        )

        required = (
            np.maximum(lengths[survivors], len(record)) - self.q + 1 - self.q * threshold_int
        )
        if required.max(initial=0) > 0:
            shared = np.zeros(lengths.size, dtype=np.int64)  # per call: probes run concurrently
            for gram, multiplicity in query_grams.items():
                posting = self._postings.get(gram)
                if posting is not None:
                    rows, counts = posting.view().T
                    shared[rows] += np.minimum(counts, multiplicity)
            survivors = survivors[shared[survivors] >= required]

        lengths = lengths[survivors]
        distances = levenshtein_codes(
            string_codes([record])[0][0],
            self._codes.view()[:, : lengths.max(initial=0)][survivors],
            lengths,
        )
        keep = distances <= threshold_int
        return self._view.to_logical(survivors[keep]), distances[keep]

    def query(self, record: str, threshold: float) -> List[int]:
        return self._probe(record, threshold)[0].tolist()

    def _match_distances(self, record: str, threshold: float) -> np.ndarray:
        return self._probe(record, threshold)[1]

    def rebuild(self, dataset: Sequence) -> "QGramEditSelector":
        return QGramEditSelector(dataset, q=self.q)

    # ------------------------------------------------------------------ #
    # Delta maintenance hooks
    # ------------------------------------------------------------------ #
    def _normalize_record(self, record) -> str:
        return str(record)

    def _delta_insert(self, records: List, physical_ids: np.ndarray) -> None:
        super()._delta_insert(records, physical_ids)
        grams = [qgrams(record, self.q) for record in records]
        codes, lengths = string_codes(records, self._codes.view().shape[1])
        self._codes.widen(codes.shape[1], fill=-1)
        self._codes.append(codes)
        self._lengths.append(lengths)
        self._signatures.append(np.array([qgram_signature(g) for g in grams], dtype=np.uint64))
        extend_postings(
            self._postings,
            (
                (gram, (physical_id, multiplicity))
                for physical_id, row_grams in zip(physical_ids.tolist(), grams)
                for gram, multiplicity in row_grams.items()
            ),
        )

    def _restore_derived(self) -> None:
        """Index the stored strings: the insert path, run once over an empty store."""
        records, self._phys_records = self._phys_records, []
        self._lengths = GrowableArray(np.zeros(0, dtype=np.int64))
        self._codes = GrowableArray(np.zeros((0, 0), dtype=np.int32))
        self._signatures = GrowableArray(np.zeros(0, dtype=np.uint64))
        self._postings: Dict[str, GrowableArray] = {}
        self._delta_insert(records, np.arange(len(records), dtype=np.int64))
