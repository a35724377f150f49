"""The CardNet regression model (paper §5) and its accelerated variant (§7).

The model operates in the Hamming-space interface produced by feature
extraction: the input is a binary vector ``x ∈ {0,1}^d`` and an integer
threshold ``τ ∈ [0, τ_max]``.  The forward pass is

1. Γ: concatenate ``x`` with the VAE latent → dense representation ``x'``;
2. Ψ: pair ``x'`` with each distance embedding ``e_i`` and run the shared FNN Φ
   (or run the accelerated Φ′ once) → per-distance embeddings ``z_x^i``;
3. decoders: ``g_i(x) = ReLU(w_i^T z_x^i + b_i)``;
4. incremental prediction: ``ĉ = Σ_{i=0..τ} g_i(x)``.

Monotonicity in τ follows from non-negative deterministic decoders (Lemma 2).

Training builds these steps as a :class:`Tensor` graph (``forward``); inference
(``estimate_curve`` / ``estimate``) evaluates the same steps on plain arrays,
one pass for the whole curve, and ``forward`` is what the tests check it against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor
from .decoders import PerDistanceDecoders
from .encoder import AcceleratedEncoder, DistanceEmbedding, SharedEncoder
from .vae import VariationalAutoEncoder


@dataclass
class CardNetConfig:
    """Hyperparameters of the CardNet regression model.

    Defaults are scaled-down versions of the paper's settings (§9.1.3) so that
    CPU training in the test-suite/benchmarks stays fast; the architecture is
    unchanged.
    """

    tau_max: int = 16
    vae_latent_dimension: int = 16
    vae_hidden_sizes: Sequence[int] = (64, 32)
    distance_embedding_dimension: int = 5
    embedding_dimension: int = 32
    encoder_hidden_sizes: Sequence[int] = (64, 64)
    accelerated: bool = False
    vae_loss_weight: float = 0.1          # λ in Eq. 2
    dynamic_loss_weight: float = 0.1      # λ_Δ in Eq. 3
    seed: int = 0
    extra: dict = field(default_factory=dict)


class CardNet(nn.Module):
    """CardNet / CardNet-A regression model over the Hamming-space interface."""

    def __init__(self, input_dimension: int, config: Optional[CardNetConfig] = None) -> None:
        super().__init__()
        self.config = config or CardNetConfig()
        self.input_dimension = int(input_dimension)
        cfg = self.config

        self.vae = VariationalAutoEncoder(
            input_dimension=input_dimension,
            latent_dimension=cfg.vae_latent_dimension,
            hidden_sizes=cfg.vae_hidden_sizes,
            seed=cfg.seed,
        )
        representation_dimension = self.vae.representation_dimension
        self.distance_embedding = DistanceEmbedding(
            tau_max=cfg.tau_max,
            embedding_dimension=cfg.distance_embedding_dimension,
            seed=cfg.seed + 1,
        )
        if cfg.accelerated:
            self.encoder = AcceleratedEncoder(
                representation_dimension=representation_dimension,
                tau_max=cfg.tau_max,
                embedding_dimension=cfg.embedding_dimension,
                hidden_sizes=cfg.encoder_hidden_sizes,
                seed=cfg.seed + 2,
            )
        else:
            self.encoder = SharedEncoder(
                representation_dimension=representation_dimension,
                distance_embedding_dimension=cfg.distance_embedding_dimension,
                embedding_dimension=cfg.embedding_dimension,
                hidden_sizes=cfg.encoder_hidden_sizes,
                seed=cfg.seed + 2,
            )
        self.decoders = PerDistanceDecoders(
            tau_max=cfg.tau_max, embedding_dimension=cfg.embedding_dimension, seed=cfg.seed + 3
        )

    @classmethod
    def stacked(cls, models: Sequence["CardNet"]) -> "CardNet":
        """One CardNet over S models of one configuration, for inference only.

        Each parameter holds the S models' values along a leading shard axis
        (a vector parameter as ``(S, 1, n)``, so it broadcasts over batch
        rows).  ``estimate_curve`` then runs the one inference kernel over
        all S models and returns ``(S, batch, τ_max+1)``; row ``s`` is
        ``models[s].estimate_curve`` of the same features.
        """
        # Copy the first model's modules but not its parameters, so no second
        # set of weights is initialised: the memo maps each parameter to a
        # new Tensor over the stacked values.
        memo = {
            id(params[0]): Tensor(
                np.stack([p.data.reshape(1, -1) if p.ndim == 1 else p.data for p in params]),
                requires_grad=True,
            )
            for params in zip(*(model.parameters() for model in models))
        }
        return copy.deepcopy(models[0], memo)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def tau_max(self) -> int:
        return self.config.tau_max

    @property
    def accelerated(self) -> bool:
        return self.config.accelerated

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def embeddings(self, representation: Tensor) -> Tensor:
        """Ψ: Z of shape (batch, τ_max+1, z_dim); row i of ``Z[k]`` is z_x^i for query k."""
        if isinstance(self.encoder, AcceleratedEncoder):
            return self.encoder(representation)
        return self.encoder(representation, self.distance_embedding.all_embeddings())

    def per_distance_estimates(self, features: Tensor, deterministic: bool) -> Tensor:
        """(batch, τ_max+1) matrix of non-negative per-distance cardinalities."""
        representation = self.vae.representation(features, deterministic=deterministic)
        return self.decoders(self.embeddings(representation))

    def training_outputs(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        """(per-distance estimates, L_vae) of one training batch, the two model
        terms of Eq. 2.

        Both need the posterior q(z | x), so the VAE's encoder runs once; each
        term then draws its own latent, in the order — and from the same noise
        stream — as ``per_distance_estimates`` followed by ``vae_loss``.
        """
        mean, log_var = self.vae.encode(features)
        latent = self.vae.reparameterize(mean, log_var)
        representation = nn.concatenate([features, latent], axis=-1)
        per_distance = self.decoders(self.embeddings(representation))
        return per_distance, self.vae.posterior_loss(features, mean, log_var)

    def forward(self, features: Tensor, taus: np.ndarray, deterministic: Optional[bool] = None) -> Tensor:
        """Estimated cardinalities ĉ for a batch of (feature vector, τ) pairs."""
        if deterministic is None:
            deterministic = not self.training
        per_distance = self.per_distance_estimates(features, deterministic)
        return PerDistanceDecoders.cumulative(per_distance, taus)

    # ------------------------------------------------------------------ #
    # Inference API (numpy in, numpy out, always deterministic, graph-free)
    # ------------------------------------------------------------------ #
    def estimate_curve(self, features: np.ndarray) -> np.ndarray:
        """Cumulative estimates for *all* τ = 0..τ_max (one monotone curve per row).

        The same arithmetic as ``forward(..., deterministic=True)`` on plain
        arrays: no :class:`Tensor` is built and nothing is cached — every
        parameter's live ``.data`` is read on each call, so optimizer steps,
        ``load_state_dict`` and snapshot restore are visible immediately.
        Over :meth:`stacked` parameters every array gains a leading shard axis.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        representation = self.vae.infer_representation(features)
        # Ψ: Z[k, i] = z_x^i for row k, shape (batch, τ_max+1, z_dim).
        if isinstance(self.encoder, AcceleratedEncoder):
            embeddings = self.encoder.infer_embeddings(representation)
        else:
            embeddings = self.encoder.infer_embeddings(
                representation, self.distance_embedding.infer_all_embeddings()
            )
        # Decoder bank g_i, then the incremental sum.
        return np.cumsum(self.decoders.infer_all(embeddings), axis=-1)

    def estimate(self, features: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Deterministic estimates for pre-featurized queries: ``estimate_curve(x)[τ]``."""
        taus = np.atleast_1d(np.asarray(taus, dtype=np.int64))
        if taus.size and (taus.min() < 0 or taus.max() > self.tau_max):
            raise ValueError(f"tau outside [0, {self.tau_max}]")
        curves = self.estimate_curve(features)
        return curves[np.arange(curves.shape[0]), taus]

    def vae_loss(self, features: Tensor) -> Tensor:
        """The VAE term L_vae of the joint objective (Eq. 2)."""
        return self.vae.loss(features)
