"""The one table of element-wise activations (plain numpy, no graph).

Every place an activation is evaluated reads this table: the primitive
``Tensor.relu()/elu()/…`` nodes, the fused :func:`repro.nn.linear` node, and
the graph-free ``infer`` of the activation modules.  ``forward()`` and
``infer()`` therefore cannot drift apart — there is one expression each for
the value and for the slope.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

import numpy as np


class Activation(NamedTuple):
    """``value(z, *params)`` and ``slope(z, out, *params)`` = d value / d z.

    ``out`` is the array ``value`` returned for the same ``z``, so a slope
    that is cheaper in terms of the output (sigmoid, tanh, ELU) can reuse it.
    """

    value: Callable[..., np.ndarray]
    slope: Callable[..., np.ndarray]


def _elu_value(z: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    # alpha * (exp(min(z, 0)) - 1) on the negative side, built in one scratch array.
    negative = np.minimum(z, 0.0)
    np.exp(negative, out=negative)
    negative -= 1.0
    negative *= alpha
    return np.where(z > 0, z, negative)


def _elu_slope(z: np.ndarray, out: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(z > 0, 1.0, out + alpha)


def _sigmoid_value(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


ACTIVATIONS: Dict[str, Activation] = {
    "relu": Activation(lambda z: np.maximum(z, 0.0), lambda z, out: z > 0),
    "elu": Activation(_elu_value, _elu_slope),
    "sigmoid": Activation(_sigmoid_value, lambda z, out: out * (1.0 - out)),
    "tanh": Activation(np.tanh, lambda z, out: 1.0 - out ** 2),
    # Numerically stable softplus: log(1 + exp(z)).
    "softplus": Activation(lambda z: np.logaddexp(0.0, z), lambda z, out: _sigmoid_value(z)),
}
