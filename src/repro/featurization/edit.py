"""Feature extraction for edit distance on strings (paper §4.2).

Each character occurrence at position ``i`` sets a window of ``2·τ_max + 1``
bits in the group of its character, covering positions ``i - τ_max`` through
``i + τ_max``.  An edit operation then changes at most ``4·τ_max + 2`` bits, so
``ed(x, y) <= θ`` implies ``H(x, y) <= θ · (4·τ_max + 2)`` — a *bounding*
featurization in the paper's taxonomy.  The Hamming distance grows roughly
proportionally with the edit distance, so the same proportional/identity
threshold transformation as for Hamming distance is used.

A batch is encoded in one write.  Every in-alphabet character of a record's
first ``l_max`` characters contributes the flat index of its window's first
bit, ``row · d + group · W + position`` with group width ``W = l_max +
2·window`` (positions are offset by ``window``, so position ``-window`` is bit
0 of the group); the ``2·window + 1`` bits of every window are then set by one
fancy-index assignment.  Characters outside Σ set nothing.  Invariant:
``position < l_max``, so a window's last bit ``group · W + position + 2·window``
is below ``(group + 1) · W`` and never spills into the next group — no clip is
needed.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .base import FeatureExtractor, integer_threshold_map


class EditFeatureExtractor(FeatureExtractor):
    """Character-window binary encoding of strings (bounding featurization)."""

    def __init__(
        self,
        alphabet: Sequence[str],
        max_length: int,
        theta_max: float,
        tau_max: int | None = None,
        window: int | None = None,
    ) -> None:
        """Parameters
        ----------
        alphabet:
            Ordered alphabet Σ; characters outside Σ are ignored.
        max_length:
            Maximum string length l_max observed in the dataset.
        theta_max:
            Maximum edit-distance threshold supported.
        tau_max:
            Number of decoders minus one.  Defaults to ``θ_max``.
        window:
            Half-width of the bit window per character occurrence.  The paper
            uses ``τ_max``; exposing it separately keeps the binary vectors
            from exploding when τ_max is large, without changing the bounding
            property (the bound becomes ``θ · (4·window + 2)``).
        """
        self.alphabet = list(dict.fromkeys(alphabet))
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        self._char_to_group: Dict[str, int] = {c: i for i, c in enumerate(self.alphabet)}
        self.max_length = int(max_length)
        self.theta_max = float(theta_max)
        self.tau_max = int(tau_max) if tau_max is not None else int(theta_max)
        self.window = int(window) if window is not None else min(self.tau_max, 4)
        self.group_width = self.max_length + 2 * self.window
        self.dimension = self.group_width * len(self.alphabet)

    def transform_records(self, records) -> np.ndarray:
        groups, width, row_width = self._char_to_group, self.group_width, self.dimension
        starts = np.fromiter(
            (
                row * row_width + group * width + position
                for row, record in enumerate(records)
                for position, group in enumerate(map(groups.get, str(record)[: self.max_length]))
                if group is not None
            ),
            dtype=np.int64,
        )
        matrix = np.zeros((len(records), row_width), dtype=np.float64)
        matrix.ravel()[np.add.outer(starts, np.arange(2 * self.window + 1))] = 1.0
        return matrix

    def transform_thresholds(self, thetas) -> np.ndarray:
        thetas = self.validate_thresholds(thetas)
        return integer_threshold_map(thetas, self.theta_max, self.tau_max)
