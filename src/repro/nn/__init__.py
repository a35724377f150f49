"""Numpy-based neural network substrate (autodiff, layers, losses, optimizers).

This package stands in for PyTorch/TensorFlow, which the original paper used
for training CardNet.  It provides exactly the primitives the reproduced models
need: a reverse-mode autodiff :class:`~repro.nn.tensor.Tensor`, torch-style
:class:`~repro.nn.module.Module` composition, dense layers and activations,
the losses used in the paper (MSLE, VAE reconstruction + KL), and the Adam
optimizer.

A training step is a handful of nodes the size of its arithmetic: ``linear``
(affine + bias + activation), ``linear_bank`` (the per-distance decoder heads),
``pair_rows`` (the stacked Φ input), ``gaussian_sample`` (the VAE's
reparameterization) and the four losses are single nodes with
closed-form gradients; the primitive operations stay in :mod:`repro.nn.tensor`
for the baselines and for the tests that rebuild each fused node from them.
"""

from .gradcheck import check_gradients, numerical_gradient
from .layers import (
    ELU,
    Embedding,
    Identity,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    gaussian_sample,
    linear,
    linear_bank,
    mlp,
    pair_rows,
)
from .losses import (
    bce_with_logits_loss,
    gaussian_kl_loss,
    mae_loss,
    mse_loss,
    msle_loss,
    q_error_loss,
    weighted_msle,
)
from .module import Module
from .optim import SGD, Adam, Optimizer, StepLR
from .serialization import serialized_size
from .tensor import Tensor, concatenate, stack, where

__all__ = [
    "Tensor",
    "concatenate",
    "stack",
    "where",
    "Module",
    "Linear",
    "ReLU",
    "ELU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "Sequential",
    "Embedding",
    "mlp",
    "gaussian_sample",
    "linear",
    "linear_bank",
    "pair_rows",
    "mse_loss",
    "msle_loss",
    "weighted_msle",
    "mae_loss",
    "bce_with_logits_loss",
    "gaussian_kl_loss",
    "q_error_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "serialized_size",
    "check_gradients",
    "numerical_gradient",
]
