"""CardNet's training objective: weighted MSLE + dynamic per-distance loss (paper §6.2).

The full objective (Eq. 2 and Eq. 3) is

    L(ĉ, c) = E_{τ~P}[ L_g(ĉ, c) ] + λ·L_vae(x)
    L_g(ĉ, c) = MSLE(ĉ, c) + λ_Δ · Σ_i ω_i · MSLE(ĉ_i, c_i)

where ``P`` is the empirical distribution of transformed thresholds on the
validation set, ``ĉ_i / c_i`` are the per-distance (incremental) estimates and
targets, and the weights ``ω_i`` are adjusted dynamically: after each
validation pass, distances whose validation loss *increased* receive weight
proportional to the increase, all others receive zero (§6.2).  The MSLE itself
is :func:`repro.nn.weighted_msle`; this module owns the weights ω_i and P.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


class DynamicLossWeights:
    """Tracks per-distance validation losses and derives the dynamic weights ω_i.

    ``update`` is called with the per-distance validation MSLE after every
    validation pass; weights follow the paper's rule:

    * if the loss for distance i increased (Δℓ_i > 0), its weight is
      Δℓ_i / Σ_{j: Δℓ_j > 0} Δℓ_j;
    * otherwise the weight is 0.

    Before the second validation pass (no trend available yet) the weights are
    uniform so the per-distance term is active from the start.
    """

    def __init__(self, tau_max: int) -> None:
        self.tau_max = int(tau_max)
        self._previous_losses: Optional[np.ndarray] = None
        self.weights = np.full(self.tau_max + 1, 1.0 / (self.tau_max + 1))

    def update(self, per_distance_losses: Sequence[float]) -> np.ndarray:
        losses = np.asarray(per_distance_losses, dtype=np.float64)
        if losses.shape != (self.tau_max + 1,):
            raise ValueError(
                f"expected {self.tau_max + 1} per-distance losses, got {losses.shape}"
            )
        if self._previous_losses is None:
            self._previous_losses = losses.copy()
            return self.weights
        deltas = losses - self._previous_losses
        self._previous_losses = losses.copy()
        positive = np.where(deltas > 0.0, deltas, 0.0)
        total = positive.sum()
        if total > 0.0:
            self.weights = positive / total
        else:
            self.weights = np.zeros(self.tau_max + 1)
        return self.weights

    def as_dict(self) -> Dict[int, float]:
        return {index: float(weight) for index, weight in enumerate(self.weights)}


def empirical_tau_distribution(taus: Sequence[int], tau_max: int) -> np.ndarray:
    """Empirical P(τ) from the validation set (paper Eq. 2's approximation)."""
    counts = np.bincount(np.asarray(taus, dtype=np.int64), minlength=tau_max + 1).astype(np.float64)
    total = counts.sum()
    if total == 0:
        return np.full(tau_max + 1, 1.0 / (tau_max + 1))
    return counts / total
