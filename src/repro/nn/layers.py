"""Neural-network layers built on the autodiff Tensor.

These layers are the building blocks of CardNet's encoder/decoder networks and
of all deep-learning baselines (DL-DNN, DL-MoE, DL-RMI, DL-DLN calibrators).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import init
from .activations import ACTIVATIONS
from .module import Module
from .tensor import Tensor, _node


def linear(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
    params: Tuple[float, ...] = (),
) -> Tensor:
    """``activation(x W + b)`` as ONE graph node (x is (batch, in), W is (in, out)).

    The same floating-point operations, in the same order, as the primitive
    chain ``(x @ W + b).<activation>()``: the backward is that chain's three
    closures run back to back, without the two intermediate tensors.
    """
    pre_activation = x.data @ weight.data
    if bias is not None:
        pre_activation += bias.data
    if activation is None:
        out_data = pre_activation
    else:
        function = ACTIVATIONS[activation]
        out_data = function.value(pre_activation, *params)

    def backward(grad: np.ndarray) -> None:
        if activation is not None:
            grad = grad * function.slope(pre_activation, out_data, *params)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0), fresh=True)
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T, fresh=True)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad, fresh=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out_data, parents, backward)


def linear_bank(z: Tensor, weights: Tensor, biases: Tensor, activation: str) -> Tensor:
    """A bank of T one-output affine heads, one per slice of ``z``, as ONE node.

    ``z`` is (batch, T, d), ``weights`` (T, d), ``biases`` (T,); the result is
    ``activation(Σ_d z[n, t, d] · weights[t, d] + biases[t])`` of shape (batch, T).
    """
    function = ACTIVATIONS[activation]
    pre_activation = np.einsum("ntd,td->nt", z.data, weights.data)
    pre_activation += biases.data
    out_data = function.value(pre_activation)

    def backward(grad: np.ndarray) -> None:
        grad = grad * function.slope(pre_activation, out_data)
        if biases.requires_grad:
            biases._accumulate(grad.sum(axis=0), fresh=True)
        if weights.requires_grad:
            weights._accumulate(np.einsum("nt,ntd->td", grad, z.data), fresh=True)
        if z.requires_grad:
            z._accumulate(grad[:, :, None] * weights.data, fresh=True)

    return _node(out_data, (z, weights, biases), backward)


def gaussian_sample(mean: Tensor, log_var: Tensor, noise: np.ndarray) -> Tensor:
    """The reparameterization ``mean + exp(log_var / 2) · noise`` as ONE node."""
    std = np.exp(log_var.data * 0.5)

    def backward(grad: np.ndarray) -> None:
        mean._accumulate(grad)
        if log_var.requires_grad:
            log_var._accumulate(grad * noise * std * 0.5, fresh=True)

    return _node(mean.data + std * noise, (mean, log_var), backward)


def pair_rows(left: Tensor, right: Tensor) -> Tensor:
    """All ``[left_i ; right_j]`` rows, ``i`` major, as ONE node.

    ``left`` is (n, a), ``right`` (m, b); the result is (n·m, a + b) with row
    ``i·m + j`` equal to the concatenation of ``left[i]`` and ``right[j]``.
    """
    (n, a), (m, b) = left.shape, right.shape
    out_data = np.concatenate(
        [np.repeat(left.data, m, axis=0), np.tile(right.data, (n, 1))], axis=1
    )

    def backward(grad: np.ndarray) -> None:
        if left.requires_grad:
            left._accumulate(grad[:, :a].reshape(n, m, a).sum(axis=1), fresh=True)
        if right.requires_grad:
            right._accumulate(grad[:, a:].reshape(n, m, b).sum(axis=0), fresh=True)

    return _node(out_data, (left, right), backward)


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
        return linear(x, self.weight, self.bias if self.use_bias else None)

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.use_bias:
            out += self.bias.data
        return out


class _ActivationModule(Module):
    """An element-wise activation: one row of :data:`ACTIVATIONS` as a module.

    ``function`` names the row; ``params`` are the extra arguments its value
    and slope take.  :class:`Sequential` folds such a module into the
    :class:`Linear` in front of it.
    """

    function: str
    params: Tuple[float, ...] = ()

    def forward(self, x: Tensor) -> Tensor:
        return x._activate(self.function, *self.params)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return ACTIVATIONS[self.function].value(x, *self.params)


class ReLU(_ActivationModule):
    """Rectified linear unit."""

    function = "relu"


class ELU(_ActivationModule):
    """Exponential linear unit (used by the VAE, in line with the paper)."""

    function = "elu"

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    @property
    def params(self) -> Tuple[float, ...]:
        return (self.alpha,)


class Sigmoid(_ActivationModule):
    function = "sigmoid"


class Tanh(_ActivationModule):
    function = "tanh"


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
        modules = self._ordered
        position = 0
        while position < len(modules):
            module = modules[position]
            following = modules[position + 1] if position + 1 < len(modules) else None
            if type(module) is Linear and isinstance(following, _ActivationModule):
                # Affine layer + its activation: one node instead of three.
                x = linear(
                    x,
                    module.weight,
                    module.bias if module.use_bias else None,
                    following.function,
                    following.params,
                )
                position += 2
            else:
                x = module(x)
                position += 1
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
