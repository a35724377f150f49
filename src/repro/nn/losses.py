"""Loss functions for training the reproduced models.

The paper trains its regression with the mean squared logarithmic error
(MSLE, §6.2) plus a per-distance dynamic term, and the VAE with the usual
reconstruction + KL objective.  All losses here operate on autodiff Tensors and
return scalar Tensors.

The four losses a CardNet training step evaluates (``weighted_msle`` /
``msle_loss``, ``bce_with_logits_loss``, ``gaussian_kl_loss``) are single graph
nodes with closed-form gradients; the tests rebuild each from ``Tensor``
primitives and compare value and gradients.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, _node


def _scalar_node(value: float, gradients: Sequence[Tuple[Tensor, np.ndarray]]) -> Tensor:
    """A scalar whose derivative in each listed input is the array beside it."""

    def backward(grad: np.ndarray) -> None:
        for tensor, derivative in gradients:
            tensor._accumulate_unbroadcast(derivative * grad, fresh=True)

    return _node(np.asarray(value), tuple(tensor for tensor, _ in gradients), backward)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def weighted_msle(
    prediction: Tensor, target: Tensor, weights: Optional[np.ndarray] = None
) -> Tensor:
    """MSLE with optional per-element weights: Σ w·(log1p(p⁺) − log1p(t⁺))² / Σ w.

    Without weights it is the plain mean.  Both sides are clipped at zero from
    below so the logarithm is defined even if a decoder momentarily produces a
    tiny negative value (should not happen after ReLU, but keeps training
    robust); the clip passes gradient where the input is ≥ 0.
    """
    clipped_prediction = np.maximum(prediction.data, 0.0)
    clipped_target = np.maximum(target.data, 0.0)
    difference = np.log1p(clipped_prediction) - np.log1p(clipped_target)
    squared = difference * difference
    if weights is None:
        value = squared.mean()
        scale = 2.0 / max(squared.size, 1)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total = float(max(np.sum(weights), 1e-12))  # repro: ignore[RPR011] - a loss denominator
        value = (squared * weights).sum() / total
        scale = 2.0 * weights / total
    slope = scale * difference
    gradients = []
    if prediction.requires_grad:
        gradients.append(
            (prediction, slope / (1.0 + clipped_prediction) * (prediction.data >= 0.0))
        )
    if target.requires_grad:
        gradients.append((target, -slope / (1.0 + clipped_target) * (target.data >= 0.0)))
    return _scalar_node(value, gradients)


def msle_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared logarithmic error: mean((log1p(pred) - log1p(target))^2)."""
    return weighted_msle(prediction, target)


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error via a smooth |x| ~ sqrt(x^2 + eps) approximation."""
    diff = prediction - target
    return ((diff * diff + 1e-12) ** 0.5).mean()  # repro: ignore[RPR011] - a loss smoothing term


def bce_with_logits_loss(logits: Tensor, target: Tensor) -> Tensor:
    """Numerically stable binary cross entropy on logits.

    Used for the VAE's Bernoulli reconstruction of binary feature vectors:
    ``max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """
    z, y = logits.data, target.data
    decay = np.exp(-np.abs(z))
    per_element = np.maximum(z, 0.0) - z * y + np.log1p(decay)
    count = max(per_element.size, 1)
    gradients = []
    if logits.requires_grad:
        # σ(z) from exp(−|z|), which cannot overflow.
        probability = np.where(z >= 0, 1.0, decay) / (1.0 + decay)
        gradients.append((logits, (probability - y) / count))
    if target.requires_grad:
        gradients.append((target, -z / count))
    return _scalar_node(per_element.mean(), gradients)


def gaussian_kl_loss(mean: Tensor, log_var: Tensor) -> Tensor:
    """KL( N(mean, exp(log_var)) || N(0, I) ), averaged over the batch."""
    variance = np.exp(log_var.data)
    kl_per_dim = (mean.data * mean.data + variance - log_var.data - 1.0) * 0.5
    kl_per_row = kl_per_dim.sum(axis=-1)
    rows = max(kl_per_row.size, 1)
    gradients = []
    if mean.requires_grad:
        gradients.append((mean, mean.data / rows))
    if log_var.requires_grad:
        gradients.append((log_var, (variance - 1.0) * (0.5 / rows)))
    return _scalar_node(kl_per_row.mean(), gradients)


def q_error_loss(prediction: Tensor, target: Tensor, epsilon: float = 1.0) -> Tensor:
    """Smooth surrogate of the q-error max(c/ĉ, ĉ/c) using log-space distance.

    Not used by the paper's training but exposed for experimentation; in log
    space the q-error is exp(|log ĉ - log c|), so the squared log difference is
    a convenient differentiable proxy.
    """
    log_pred = (prediction.clip(min_value=0.0) + epsilon).log()
    log_target = (target.clip(min_value=0.0) + epsilon).log()
    diff = log_pred - log_target
    return (diff * diff).mean()
