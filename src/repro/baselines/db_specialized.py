"""DB-SE: specialized database estimators, one per distance function (paper §9.1.2).

The paper's DB-SE row uses a different auxiliary-structure method per distance:
a histogram for Hamming [63], an inverted index for edit distance [36], a
semi-lattice for Jaccard [46], and LSH-based sampling for Euclidean [76].
This module provides a faithful-in-spirit implementation of each:

* :class:`HistogramHammingEstimator` — partitions the dimensions into groups,
  keeps an exact pattern histogram per group (maintained under inserts and
  deletes from the Δ rows alone), and combines the per-group distance
  distributions under an independence assumption (convolution), the classic
  multidimensional-histogram recipe.
* :class:`QGramInvertedIndexEstimator` — estimates edit-distance selectivity
  from the q-gram count filter evaluated on an inverted index (records whose
  shared q-gram count passes the filter are counted, without verification).
* :class:`SketchJaccardEstimator` — stores a minhash sketch per record (the
  practical form of the semi-lattice / LSH size estimators for set similarity)
  and counts records whose sketch-estimated distance is within the threshold.
* :class:`LSHSamplingEuclideanEstimator` — p-stable LSH tables provide a
  query-biased candidate sample whose exact distances are combined with a
  uniform background sample, following the LSH-sampling local-density recipe.

All four are batch-first: the per-query auxiliary state (group distributions,
q-gram overlaps, sketches, candidate distances) is computed once per record
and then answers every threshold vectorized, so whole-curve estimation costs
barely more than a single threshold.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.interface import CardinalityEstimator
from ..distances.base import integer_radius, within
from ..distances.euclidean import EuclideanDistance
from ..selection.edit_index import qgrams
from .common import counts_within_thresholds


# --------------------------------------------------------------------------- #
# Hamming: group histogram with convolution
# --------------------------------------------------------------------------- #
#: Widest 0/1 group counted in a dense ``np.bincount`` table of its codes.
_DENSE_CODE_BITS = 16


def _pattern_histogram(
    block: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``block`` and how often each occurs (the sum of
    their ``weights``, if given; patterns summing to 0 drop out), in one array pass.

    A 0/1 group of at most 16 bits (every group size the repo builds) is one
    integer code per row, counted with ``np.bincount`` and decoded back into
    patterns; anything else counts rows with ``np.unique(axis=0)``.  Patterns
    come in sorted order, not first occurrence — the counts are integers, so
    every sum over them is exact in any order.
    """
    width = block.shape[1]
    if block.max(initial=0) > 1 or width > _DENSE_CODE_BITS:
        patterns, inverse = np.unique(block, axis=0, return_inverse=True)
        counts = np.bincount(inverse.reshape(-1), weights, minlength=len(patterns))
        distinct = np.flatnonzero(counts)
        patterns = patterns[distinct]
    else:
        shifts = np.arange(width, dtype=np.int64)
        codes = (block.astype(np.int64) << shifts).sum(axis=1)
        counts = np.bincount(codes, weights, minlength=1 << width)
        distinct = np.flatnonzero(counts)
        patterns = ((distinct[:, None] >> shifts) & 1).astype(np.uint8)
    return patterns, counts[distinct].astype(np.int64)


class HistogramHammingEstimator(CardinalityEstimator):
    """Multidimensional histogram over dimension groups + convolution of distances."""

    name = "DB-SE"
    monotonic = True

    def __init__(self, dataset_records: Sequence, group_size: int = 8) -> None:
        matrix = np.asarray(dataset_records, dtype=np.uint8)
        if matrix.ndim != 2:
            matrix = np.stack([np.asarray(r, dtype=np.uint8) for r in dataset_records])
        self._num_records = matrix.shape[0]
        self._dimension = matrix.shape[1]
        self.group_size = int(group_size)
        self._groups: List[tuple[int, int]] = []
        start = 0
        while start < self._dimension:
            stop = min(start + self.group_size, self._dimension)
            self._groups.append((start, stop))
            start = stop
        # Pattern histogram per group, stored as (patterns matrix, counts vector)
        # so the batch kernel can compare every query against every pattern at once.
        self._pattern_matrices: List[np.ndarray] = []
        self._pattern_counts: List[np.ndarray] = []
        for start, stop in self._groups:
            patterns, counts = _pattern_histogram(matrix[:, start:stop])
            self._pattern_matrices.append(patterns)
            self._pattern_counts.append(counts)

    def counts_after(self, inserted: np.ndarray, removed: np.ndarray) -> tuple:
        """The histogram once the ``inserted`` rows are added and the
        ``removed`` ones (counted now) taken out, from the stored patterns and
        the Δ rows alone: O(patterns + Δ), not O(rows).  Changes nothing;
        :meth:`adopt_counts` takes the result."""
        delta = np.concatenate([inserted, removed]).astype(np.uint8)
        weights = np.repeat([1.0, -1.0], [len(inserted), len(removed)])
        matrices, counts = [], []
        for (start, stop), patterns, stored in zip(
            self._groups, self._pattern_matrices, self._pattern_counts
        ):
            group_patterns, group_counts = _pattern_histogram(
                np.concatenate([patterns, delta[:, start:stop]]),
                np.concatenate([stored, weights]),
            )
            if group_counts.size and group_counts.min() < 0:
                raise ValueError("removed rows are not in the histogram")
            matrices.append(group_patterns)
            counts.append(group_counts)
        return self._num_records + len(inserted) - len(removed), matrices, counts

    def adopt_counts(self, counts: tuple) -> None:
        self._num_records, self._pattern_matrices, self._pattern_counts = counts

    def _distance_distributions(self, queries: np.ndarray) -> np.ndarray:
        """Convolved distance distribution per query: (n, dimension + 1)."""
        num_queries = queries.shape[0]
        total = np.ones((num_queries, 1))
        scale = max(self._num_records, 1)
        for (start, stop), patterns, counts in zip(
            self._groups, self._pattern_matrices, self._pattern_counts
        ):
            width = stop - start
            # (n, patterns) group Hamming distances, then a weighted histogram row.
            distances = np.count_nonzero(
                patterns[None, :, :] != queries[:, None, start:stop], axis=2
            )
            group = np.zeros((num_queries, width + 1))
            rows = np.broadcast_to(np.arange(num_queries)[:, None], distances.shape)
            np.add.at(group, (rows, distances), np.broadcast_to(counts, distances.shape))
            group /= scale
            # Convolve the running distribution with this group's distribution.
            length = total.shape[1]
            combined = np.zeros((num_queries, length + width))
            for offset in range(width + 1):
                combined[:, offset : offset + length] += total * group[:, offset : offset + 1]
            total = combined
        return total

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0)
        queries = np.stack([np.asarray(r, dtype=np.uint8).reshape(-1) for r in records])
        cumulative = np.cumsum(self._distance_distributions(queries), axis=1)
        thresholds = integer_radius(np.asarray(thetas, dtype=np.float64))
        columns = np.clip(thresholds, 0, cumulative.shape[1] - 1)
        return cumulative[np.arange(len(records)), columns] * self._num_records

    def estimate_curve_many(
        self, records: Sequence[Any], thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """The convolved distribution is computed once; its cumsum is the curve."""
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        queries = np.stack([np.asarray(r, dtype=np.uint8).reshape(-1) for r in records])
        cumulative = np.cumsum(self._distance_distributions(queries), axis=1)
        columns = np.clip(integer_radius(thetas), 0, cumulative.shape[1] - 1)
        return cumulative[:, columns] * self._num_records

    def curve_thetas(self) -> np.ndarray:
        """Hamming thresholds are the integers 0..dimension."""
        return np.arange(self._dimension + 1, dtype=np.float64)

    def size_in_bytes(self) -> int:
        # One stored pattern costs its bytes plus an 8-byte count.
        return sum(
            patterns.shape[0] * (patterns.shape[1] + 8)
            for patterns in self._pattern_matrices
        )


# --------------------------------------------------------------------------- #
# Edit distance: q-gram count-filter estimator on an inverted index
# --------------------------------------------------------------------------- #
class QGramInvertedIndexEstimator(CardinalityEstimator):
    """Counts records passing the q-gram count filter (no verification)."""

    name = "DB-SE"
    monotonic = True

    def __init__(self, dataset_records: Sequence[str], q: int = 2) -> None:
        self.q = int(q)
        self._records = [str(r) for r in dataset_records]
        self._grams = [qgrams(record, self.q) for record in self._records]
        self._lengths = np.asarray([len(record) for record in self._records])
        self._inverted: Dict[str, List[int]] = defaultdict(list)
        for record_id, grams in enumerate(self._grams):
            for gram in grams:
                self._inverted[gram].append(record_id)

    def _query_state(self, record: Any) -> tuple[int, np.ndarray, np.ndarray]:
        """(query length, ids of records sharing a gram, their shared-gram counts)."""
        query = str(record)
        query_grams = qgrams(query, self.q)
        shared: Dict[int, int] = defaultdict(int)
        for gram, multiplicity in query_grams.items():
            for record_id in self._inverted.get(gram, ()):
                shared[record_id] += min(multiplicity, self._grams[record_id][gram])
        record_ids = np.fromiter(shared.keys(), dtype=np.int64, count=len(shared))
        overlaps = np.fromiter(shared.values(), dtype=np.int64, count=len(shared))
        return len(query), record_ids, overlaps

    def _counts_for_thresholds(
        self,
        query_length: int,
        record_ids: np.ndarray,
        overlaps: np.ndarray,
        thresholds: np.ndarray,
    ) -> np.ndarray:
        """Count-filter passes for every threshold at once: (len(thresholds),)."""
        if record_ids.size:
            lengths = self._lengths[record_ids]
            length_ok = np.abs(lengths - query_length) <= thresholds[:, None]
            required = (
                np.maximum(query_length, lengths)[None, :]
                - self.q
                + 1
                - self.q * thresholds[:, None]
            )
            counts = np.count_nonzero(length_ok & (overlaps[None, :] >= required), axis=1)
        else:
            counts = np.zeros(len(thresholds), dtype=np.int64)
        # The count filter is vacuous for very small strings/large thresholds;
        # fall back to the length filter alone wherever it returned nothing
        # (the full-dataset length scan is only paid when actually needed).
        if np.any(counts == 0):
            length_gaps_all = np.abs(self._lengths - query_length)
            fallback = np.count_nonzero(
                length_gaps_all[None, :] <= thresholds[:, None], axis=1
            )
            counts = np.where(counts == 0, fallback, counts)
        return counts.astype(np.float64)

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0)
        thresholds = integer_radius(np.asarray(thetas, dtype=np.float64))
        output = np.zeros(len(records))
        for index, record in enumerate(records):
            query_length, record_ids, overlaps = self._query_state(record)
            output[index] = self._counts_for_thresholds(
                query_length, record_ids, overlaps, thresholds[index : index + 1]
            )[0]
        return output

    def estimate_curve_many(
        self, records: Sequence[Any], thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """The q-gram overlaps are computed once per record, then every
        threshold of the grid is answered vectorized."""
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        thresholds = integer_radius(thetas)
        curves = np.zeros((len(records), len(thresholds)))
        for index, record in enumerate(records):
            query_length, record_ids, overlaps = self._query_state(record)
            curves[index] = self._counts_for_thresholds(
                query_length, record_ids, overlaps, thresholds
            )
        return curves

    def size_in_bytes(self) -> int:
        return sum(len(gram) + 8 * len(ids) for gram, ids in self._inverted.items())


# --------------------------------------------------------------------------- #
# Jaccard: minhash sketch estimator
# --------------------------------------------------------------------------- #
class SketchJaccardEstimator(CardinalityEstimator):
    """Per-record minhash sketches; count records with sketch-estimated J-distance <= θ."""

    name = "DB-SE"
    monotonic = True

    #: Queries per block when materializing the (queries, records) agreement matrix.
    _BATCH_BLOCK = 256

    def __init__(
        self,
        dataset_records: Sequence,
        universe_size: int,
        num_hashes: int = 24,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.universe_size = int(universe_size)
        self.num_hashes = int(num_hashes)
        self._permutations = np.stack(
            [rng.permutation(self.universe_size) for _ in range(self.num_hashes)]
        )
        self._sketches = np.stack([self._sketch(record) for record in dataset_records])

    def _sketch(self, record) -> np.ndarray:
        elements = np.fromiter((int(e) % self.universe_size for e in record), dtype=np.int64)
        if elements.size == 0:
            return np.full(self.num_hashes, self.universe_size, dtype=np.int64)
        return self._permutations[:, elements].min(axis=1)

    def _sketch_distances(self, records: Sequence[Any]) -> np.ndarray:
        """(n, dataset) sketch-estimated Jaccard distances, blockwise."""
        query_sketches = np.stack([self._sketch(record) for record in records])
        blocks = []
        for start in range(0, len(records), self._BATCH_BLOCK):
            block = query_sketches[start : start + self._BATCH_BLOCK]
            agreement = (self._sketches[None, :, :] == block[:, None, :]).mean(axis=2)
            blocks.append(1.0 - agreement)
        return np.concatenate(blocks, axis=0)

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0)
        distances = self._sketch_distances(records)
        thetas = np.asarray(thetas, dtype=np.float64)
        return np.count_nonzero(within(distances, thetas[:, None]), axis=1).astype(np.float64)

    def estimate_curve_many(
        self, records: Sequence[Any], thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Sketch distances are computed once per record, curves come free
        (the shared sort+searchsorted kernel avoids a 3-D temporary)."""
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        return counts_within_thresholds(self._sketch_distances(records), thetas)

    def size_in_bytes(self) -> int:
        return int(self._sketches.nbytes)


# --------------------------------------------------------------------------- #
# Euclidean: LSH-sampling estimator
# --------------------------------------------------------------------------- #
class LSHSamplingEuclideanEstimator(CardinalityEstimator):
    """LSH candidate counting plus a uniform background sample for the tail."""

    name = "DB-SE"
    monotonic = True

    def __init__(
        self,
        dataset_records: Sequence,
        num_tables: int = 6,
        bucket_width: float = 0.5,
        background_sample_ratio: float = 0.02,
        seed: int = 0,
    ) -> None:
        matrix = np.asarray(dataset_records, dtype=np.float64)
        if matrix.ndim != 2:
            matrix = np.stack([np.asarray(r, dtype=np.float64) for r in dataset_records])
        self._matrix = matrix
        self._num_records, dimension = matrix.shape
        rng = np.random.default_rng(seed)
        self.bucket_width = float(bucket_width)
        self._projections = rng.normal(0.0, 1.0, size=(num_tables, dimension))
        self._offsets = rng.uniform(0.0, bucket_width, size=num_tables)
        hashed = np.floor((matrix @ self._projections.T + self._offsets) / bucket_width).astype(np.int64)
        self._tables: List[Dict[int, np.ndarray]] = []
        for table_index in range(num_tables):
            table: Dict[int, List[int]] = defaultdict(list)
            for record_id, key in enumerate(hashed[:, table_index]):
                table[int(key)].append(record_id)
            self._tables.append({key: np.asarray(ids) for key, ids in table.items()})
        sample_size = max(1, int(round(background_sample_ratio * self._num_records)))
        self._background_ids = rng.choice(self._num_records, size=sample_size, replace=False)

    def _candidates(self, query: np.ndarray) -> np.ndarray:
        keys = np.floor((self._projections @ query + self._offsets) / self.bucket_width).astype(np.int64)
        candidate_ids: set[int] = set()
        for table, key in zip(self._tables, keys):
            bucket = table.get(int(key))
            if bucket is not None:
                candidate_ids.update(int(i) for i in bucket)
        return np.fromiter(candidate_ids, dtype=np.int64, count=len(candidate_ids))

    def _query_state(self, record: Any) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact distances to LSH candidates and to the unseen background sample.

        Computed once per record; every threshold is then a vectorized count.
        """
        query = np.asarray(record, dtype=np.float64).reshape(-1)
        candidates = self._candidates(query)
        background = np.setdiff1d(self._background_ids, candidates, assume_unique=False)
        distance = EuclideanDistance()
        return (
            distance.distances_to(query, self._matrix[candidates]),
            distance.distances_to(query, self._matrix[background]),
            int(candidates.size),
        )

    def _counts_for_thresholds(
        self,
        candidate_distances: np.ndarray,
        background_distances: np.ndarray,
        num_candidates: int,
        thresholds: np.ndarray,
    ) -> np.ndarray:
        counts = np.count_nonzero(
            within(candidate_distances[None, :], thresholds[:, None]), axis=1
        ).astype(np.float64)
        if background_distances.size:
            fractions = (
                np.count_nonzero(
                    within(background_distances[None, :], thresholds[:, None]), axis=1
                )
                / background_distances.size
            )
            counts = counts + fractions * max(self._num_records - num_candidates, 0)
        return counts

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0)
        thetas = np.asarray(thetas, dtype=np.float64)
        output = np.zeros(len(records))
        for index, record in enumerate(records):
            state = self._query_state(record)
            output[index] = self._counts_for_thresholds(*state, thetas[index : index + 1])[0]
        return output

    def estimate_curve_many(
        self, records: Sequence[Any], thetas: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Candidate/background distances are computed once per record; the
        whole threshold grid is then answered vectorized."""
        thetas = self._resolve_curve_thetas(thetas)
        records = list(records)
        if not records:
            return np.zeros((0, len(thetas)))
        curves = np.zeros((len(records), len(thetas)))
        for index, record in enumerate(records):
            state = self._query_state(record)
            curves[index] = self._counts_for_thresholds(*state, thetas)
        return curves

    def size_in_bytes(self) -> int:
        total = int(self._projections.nbytes + self._offsets.nbytes)
        for table in self._tables:
            for ids in table.values():
                total += int(ids.nbytes) + 8
        return total
