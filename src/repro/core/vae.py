"""Variational auto-encoder used as CardNet's representation network Γ (paper §5.2.1).

The VAE embeds the sparse binary feature vector into a dense latent space.
During training the latent is sampled with the reparameterization trick
(``z = μ + σ·ε``), which the paper argues helps generalization; during
inference the deterministic expectation ``E[z] = μ`` is used so the overall
estimator stays deterministic (a requirement of Lemma 2 for monotonicity).

Γ itself concatenates the raw binary vector with the VAE latent:
``x' = [x ; VAE(x, ε)]``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor


class VariationalAutoEncoder(nn.Module):
    """Gaussian-latent VAE with Bernoulli (logit) reconstruction of binary inputs."""

    def __init__(
        self,
        input_dimension: int,
        latent_dimension: int = 16,
        hidden_sizes: Sequence[int] = (64, 32),
        seed: int = 0,
    ) -> None:
        super().__init__()
        if input_dimension <= 0 or latent_dimension <= 0:
            raise ValueError("dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.input_dimension = int(input_dimension)
        self.latent_dimension = int(latent_dimension)
        # Encoder trunk with ELU activations (paper §9.1.3 uses ELU for the VAE).
        self.encoder_trunk = nn.mlp(
            [input_dimension, *hidden_sizes], activation=nn.ELU, output_activation=nn.ELU, rng=rng
        )
        trunk_out = hidden_sizes[-1] if hidden_sizes else input_dimension
        self.mean_head = nn.Linear(trunk_out, latent_dimension, rng=rng, weight_init="xavier")
        self.log_var_head = nn.Linear(trunk_out, latent_dimension, rng=rng, weight_init="xavier")
        # Decoder mirrors the encoder and outputs reconstruction logits.
        self.decoder = nn.mlp(
            [latent_dimension, *reversed(list(hidden_sizes)), input_dimension],
            activation=nn.ELU,
            rng=rng,
        )
        self._noise_rng = np.random.default_rng(seed + 1)

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def encode(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (mean, log-variance) of the approximate posterior q(z | x)."""
        hidden = self.encoder_trunk(x)
        return self.mean_head(hidden), self.log_var_head(hidden)

    def reparameterize(self, mean: Tensor, log_var: Tensor, noise: Optional[np.ndarray] = None) -> Tensor:
        """Sample ``z = μ + σ·ε`` with ε ~ N(0, I) (training-time stochastic latent)."""
        if noise is None:
            noise = self._noise_rng.normal(0.0, 1.0, size=mean.shape)
        return nn.gaussian_sample(mean, log_var, noise)

    def decode(self, z: Tensor) -> Tensor:
        """Reconstruction logits for the binary input."""
        return self.decoder(z)

    def forward(self, x: Tensor, deterministic: bool = False) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """Full pass returning (latent, reconstruction logits, mean, log-variance)."""
        mean, log_var = self.encode(x)
        latent = mean if deterministic else self.reparameterize(mean, log_var)
        logits = self.decode(latent)
        return latent, logits, mean, log_var

    # ------------------------------------------------------------------ #
    # Loss and representation helpers
    # ------------------------------------------------------------------ #
    def loss(self, x: Tensor, beta: float = 1.0) -> Tensor:
        """Standard VAE objective: Bernoulli reconstruction + β·KL."""
        return self.posterior_loss(x, *self.encode(x), beta=beta)

    def posterior_loss(self, x: Tensor, mean: Tensor, log_var: Tensor, beta: float = 1.0) -> Tensor:
        """``loss(x)`` given the posterior ``encode(x)`` already returned.

        Lets a caller that also needs a latent of ``x`` (CardNet's joint step)
        run the encoder trunk once; the latent decoded here is a fresh draw.
        """
        logits = self.decode(self.reparameterize(mean, log_var))
        reconstruction = nn.bce_with_logits_loss(logits, x)
        kl = nn.gaussian_kl_loss(mean, log_var)
        return reconstruction + beta * kl

    def latent(self, x: Tensor, deterministic: bool) -> Tensor:
        """Latent representation: stochastic for training, μ for inference."""
        mean, log_var = self.encode(x)
        if deterministic:
            return mean
        return self.reparameterize(mean, log_var)

    def representation(self, x: Tensor, deterministic: bool) -> Tensor:
        """Γ(x) = [x ; VAE latent] — the dense representation fed to the encoder Φ."""
        return nn.concatenate([x, self.latent(x, deterministic)], axis=-1)

    def infer_representation(self, x: np.ndarray) -> np.ndarray:
        """Deterministic Γ(x) = [x ; μ] on plain arrays.

        Over stacked parameters μ has a leading shard axis; ``x`` is shared
        and broadcast to it.
        """
        mean = self.mean_head.infer(self.encoder_trunk.infer(x))
        if mean.ndim > x.ndim:
            # A C-ordered copy: a concatenate of the broadcast view is not
            # C-ordered, and matmul then sums its rows in another order than
            # one model's own Γ(x) gets.
            x = np.ascontiguousarray(np.broadcast_to(x, mean.shape[:-1] + x.shape[-1:]))
        return np.concatenate([x, mean], axis=-1)

    @property
    def representation_dimension(self) -> int:
        return self.input_dimension + self.latent_dimension


def pretrain_vae(
    vae: VariationalAutoEncoder,
    features: np.ndarray,
    epochs: int = 20,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> list[float]:
    """Unsupervised VAE pre-training on the binary feature matrix (paper §9.1.3).

    Returns the per-epoch mean loss so callers (and tests) can verify the
    objective decreases.
    """
    rng = np.random.default_rng(seed)
    optimizer = nn.Adam(vae.parameters(), lr=learning_rate)
    history: list[float] = []
    num_rows = features.shape[0]
    for _ in range(epochs):
        order = rng.permutation(num_rows)
        epoch_losses: list[float] = []
        for start in range(0, num_rows, batch_size):
            batch = features[order[start : start + batch_size]]
            optimizer.zero_grad()
            loss = vae.loss(Tensor(batch))
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return history
