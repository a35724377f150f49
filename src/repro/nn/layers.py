"""Neural-network layers built on the autodiff Tensor.

These layers are the building blocks of CardNet's encoder/decoder networks and
of all deep-learning baselines (DL-DNN, DL-MoE, DL-RMI, DL-DLN calibrators).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import init
from .module import Module
from .tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
        weight_init: str = "he",
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        if weight_init == "he":
            weight = init.he_normal(in_features, out_features, rng)
        elif weight_init == "xavier":
            weight = init.xavier_uniform(in_features, out_features, rng)
        else:
            raise ValueError(f"unknown weight_init: {weight_init!r}")
        self.weight = Tensor(weight, requires_grad=True)
        self.use_bias = bias
        if bias:
            self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.use_bias:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.use_bias:
            out += self.bias.data
        return out


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class ELU(Module):
    """Exponential linear unit (used by the VAE, in line with the paper)."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return x.elu(self.alpha)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Softplus(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.softplus()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            self.add_module(f"layer{index}", module)
            self._ordered.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for module in self._ordered:
            x = module.infer(x)
        return x

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for the distance-embedding layer ``E`` of the paper (§5.2.2), where
    each Hamming distance value ``i`` in ``[0, τ_max]`` has a learned embedding
    ``e_i`` initialized from a standard normal distribution.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            init.normal((num_embeddings, embedding_dim), rng), requires_grad=True
        )

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        return self.weight[indices]


def mlp(
    sizes: Sequence[int],
    activation: Callable[[], Module] = ReLU,
    output_activation: Optional[Callable[[], Module]] = None,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Build a fully connected network with the given layer sizes.

    Parameters
    ----------
    sizes:
        ``[in, h1, ..., hk, out]`` layer widths.
    activation:
        Hidden-layer activation constructor.
    output_activation:
        Optional activation after the final affine layer.
    """
    if len(sizes) < 2:
        raise ValueError("mlp requires at least an input and an output size")
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: List[Module] = []
    for index in range(len(sizes) - 1):
        layers.append(Linear(sizes[index], sizes[index + 1], rng=rng))
        is_last = index == len(sizes) - 2
        if not is_last:
            layers.append(activation())
        elif output_activation is not None:
            layers.append(output_activation())
    return Sequential(*layers)
