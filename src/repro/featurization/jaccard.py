"""Feature extraction for Jaccard distance via b-bit minwise hashing (paper §4.3).

Each of ``k`` random permutations hashes a set to the last ``b`` bits of its
minimum element under the permutation; each such value is one-hot encoded over
``2^b`` bits.  Two sets agree on a permutation's one-hot block with probability
``1 - f(x, y)`` (their Jaccard similarity), so the *expected* Hamming distance
between encodings is ``f(x, y) · d`` with ``d = k · 2^b`` — an LSH
featurization whose threshold transform is the proportional map.

A batch is hashed in one array pass: every record's distinct tokens are
concatenated into one int64 vector and reduced ``% universe_size`` (floor
modulo, as Python's ``int % n``, so negative tokens wrap the same way); one
gather reads their ranks under all ``k`` permutations, one
``np.minimum.reduceat`` over the record offsets takes each record's minimum
rank per permutation, and one scatter writes the one-hot blocks.  The minimum
is over ranks, so token order cannot matter.  An empty set keeps block value 0
under every permutation.  A token outside the int64 range raises
``OverflowError``.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from ..distances.jaccard import as_frozenset
from .base import FeatureExtractor, proportional_threshold_map


class MinHashJaccardFeatureExtractor(FeatureExtractor):
    """b-bit minwise hashing into a one-hot Hamming space."""

    def __init__(
        self,
        universe_size: int,
        theta_max: float,
        num_permutations: int = 32,
        bits_per_hash: int = 2,
        tau_max: int = 16,
        seed: int = 0,
    ) -> None:
        if universe_size <= 0:
            raise ValueError("universe_size must be positive")
        self.universe_size = int(universe_size)
        self.num_permutations = int(num_permutations)
        self.bits_per_hash = int(bits_per_hash)
        self.block_size = 2 ** self.bits_per_hash
        self.dimension = self.num_permutations * self.block_size
        self.theta_max = float(theta_max)
        self.tau_max = int(tau_max)
        rng = np.random.default_rng(seed)
        # Each row is a permutation of the element universe.
        self._permutations = np.stack(
            [rng.permutation(self.universe_size) for _ in range(self.num_permutations)]
        )

    def transform_records(self, records) -> np.ndarray:
        sets = [as_frozenset(record) for record in records]
        sizes = [len(tokens) for tokens in sets]
        elements = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(sizes))
        offsets = list(accumulate(sizes, initial=0))
        rows = [row for row, size in enumerate(sizes) if size]
        # permuted rank of every token under every permutation: (k, Σ|x|)
        ranks = self._permutations[:, elements % self.universe_size]
        minima = np.minimum.reduceat(ranks, [offsets[row] for row in rows], axis=1)
        # b-bit minwise hashing keeps only the low b bits of the *rank* of the
        # minimum element (its position in the permuted order).
        values = np.zeros((len(sets), self.num_permutations), dtype=np.int64)
        values[rows] = minima.T & (self.block_size - 1)
        matrix = np.zeros((len(sets), self.dimension), dtype=np.float64)
        columns = np.arange(self.num_permutations) * self.block_size + values
        matrix[np.arange(len(sets))[:, None], columns] = 1.0
        return matrix

    def transform_thresholds(self, thetas) -> np.ndarray:
        thetas = self.validate_thresholds(thetas)
        return proportional_threshold_map(thetas, self.theta_max, self.tau_max)
