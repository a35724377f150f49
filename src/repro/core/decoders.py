"""Per-distance decoders g_i and the incremental-prediction sum (paper §5.1).

Each decoder is an affine map followed by ReLU:

    g_i(x) = ReLU(w_i^T z_x^i + b_i)

so every per-distance estimate is non-negative and deterministic, which by
Lemma 2 makes the cumulative sum ``g(x, τ) = Σ_{i<=τ} g_i(x)`` monotonically
increasing in τ.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor


class PerDistanceDecoders(nn.Module):
    """τ_max + 1 affine+ReLU decoders, one per Hamming distance value."""

    def __init__(self, tau_max: int, embedding_dimension: int, seed: int = 0) -> None:
        super().__init__()
        if tau_max < 0:
            raise ValueError("tau_max must be non-negative")
        self.tau_max = int(tau_max)
        self.embedding_dimension = int(embedding_dimension)
        rng = np.random.default_rng(seed)
        # One weight row and bias per distance value.
        self.weights = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(embedding_dimension), size=(tau_max + 1, embedding_dimension)),
            requires_grad=True,
        )
        self.biases = Tensor(np.zeros(tau_max + 1), requires_grad=True)

    def forward(self, embeddings: Tensor) -> Tensor:
        """(batch, τ_max+1) per-distance estimates from Z of shape (batch, τ_max+1, z_dim).

        ``embeddings[:, i]`` is the (batch, z_dim) embedding for distance i.
        """
        if embeddings.ndim != 3 or embeddings.shape[1] != self.tau_max + 1:
            raise ValueError(
                f"expected (batch, {self.tau_max + 1}, z) embeddings, got {embeddings.shape}"
            )
        return nn.linear_bank(embeddings, self.weights, self.biases, "relu")

    def infer_all(self, embeddings: np.ndarray) -> np.ndarray:
        """(..., batch, τ_max+1) per-distance estimates from Z of shape
        (..., batch, τ_max+1, z_dim); leading axes follow stacked parameters."""
        per_distance = np.einsum("...ntz,...tz->...nt", embeddings, self.weights.data)
        per_distance += self.biases.data
        return np.maximum(per_distance, 0.0, out=per_distance)

    @staticmethod
    def cumulative(per_distance: Tensor, taus: np.ndarray) -> Tensor:
        """Incremental-prediction sum: ĉ_j = Σ_{i <= τ_j} g_i(x_j) for each row j.

        Implemented as a masked sum so the whole batch (with per-row τ values)
        is handled in one tensor expression.
        """
        taus = np.asarray(taus, dtype=np.int64)
        num_distances = per_distance.shape[1]
        mask = (np.arange(num_distances)[None, :] <= taus[:, None]).astype(np.float64)
        return (per_distance * Tensor(mask)).sum(axis=1)
