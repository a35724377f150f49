"""A minimal reverse-mode automatic differentiation engine on top of numpy.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
models (CardNet, CardNet-A, and all deep-learning baselines) are expressed as
computation graphs of :class:`Tensor` operations; gradients are obtained by a
single reverse topological sweep from the loss tensor.

The engine intentionally supports exactly the operations the reproduced models
need (dense matmul, broadcasting element-wise arithmetic, common activations,
reductions, concatenation, slicing, and embedding lookup) and nothing more.
Every operation records a local backward closure, so the implementation stays
small, auditable, and easy to verify with finite-difference gradient checks
(see ``repro.nn.gradcheck``).

Ownership of gradients
----------------------
A tensor's ``.grad`` array belongs to that tensor alone: it is never the same
memory as another tensor's ``.grad``, as the upstream gradient a closure was
handed, or as an array a caller passed to :meth:`Tensor.backward`.  That is
what makes the in-place steps safe — ``self.grad += …`` on a second gradient,
``clip_grad_norm`` scaling ``param.grad`` in place, a basic-index
``__getitem__`` adding through a view of ``self.grad``.  The rule is kept at
one place, :meth:`Tensor._accumulate`: the *first* gradient a node receives is
taken as its ``.grad`` (no zero array, no add) only when the closure declares
it ``fresh`` — a temporary it just computed and holds no other reference to —
and is copied otherwise (``__add__``, ``reshape``, ``transpose``,
``concatenate`` and ``stack`` hand the same array, or views of it, to several
parents).  Later gradients are added in place.  A node that is not a leaf
drops its ``.grad`` as soon as its own closure has consumed it, so after
``backward()`` only leaves hold gradients.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .activations import ACTIVATIONS

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]


def _as_array(data: ArrayLike, dtype: np.dtype = np.float64) -> np.ndarray:
    """Coerce input into a float numpy array without copying when possible."""
    if isinstance(data, np.ndarray):
        if data.dtype == dtype:
            return data
        return data.astype(dtype)
    return np.asarray(data, dtype=dtype)


def _is_basic_index(index) -> bool:
    """Whether ``array[index]`` is numpy basic indexing (a view, no repeats)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis or isinstance(item, (int, np.integer, slice))
        for item in items
    )


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    Numpy broadcasting silently expands dimensions; when propagating gradients
    backwards we must reduce along those expanded axes so the gradient has the
    same shape as the original operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dims that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dims that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _node(
    data: np.ndarray,
    parents: Tuple["Tensor", ...],
    backward: Callable[[np.ndarray], None],
) -> "Tensor":
    """The result of one operation; ``backward`` is kept only if a parent needs it."""
    for parent in parents:
        if parent.requires_grad:
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data, _parents=parents)


class Tensor:
    """A node in the computation graph holding a value and (optionally) a grad.

    Parameters
    ----------
    data:
        The numeric payload (converted to a float64 numpy array).
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a single-element tensor."""
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` to ``self.grad`` (see the module's ownership rule).

        ``fresh`` is the caller's promise that nothing else references
        ``grad``'s memory, so a first gradient may be kept instead of copied.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad += grad

    def _accumulate_unbroadcast(self, grad: np.ndarray, fresh: bool = False) -> None:
        """``_accumulate`` after reducing ``grad`` over the axes broadcasting added."""
        reduced = _unbroadcast(grad, self.shape)
        self._accumulate(reduced, fresh or reduced is not grad)

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_unbroadcast(grad)
            other._accumulate_unbroadcast(grad)

        return _node(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, fresh=True)

        return _node(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(grad * other.data, fresh=True)
            if other.requires_grad:
                other._accumulate_unbroadcast(grad * self.data, fresh=True)

        return _node(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_unbroadcast(grad / other.data, fresh=True)
            if other.requires_grad:
                other._accumulate_unbroadcast(
                    -grad * self.data / (other.data ** 2), fresh=True
                )

        return _node(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), fresh=True)

        return _node(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2), fresh=True)
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad, fresh=True)

        return _node(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Element-wise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, fresh=True)

        return _node(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, fresh=True)

        return _node(out_data, (self,), backward)

    def log1p(self) -> "Tensor":
        out_data = np.log1p(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (1.0 + self.data), fresh=True)

        return _node(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def _activate(self, name: str, *params: float) -> "Tensor":
        """One row of the shared activation table as a primitive node."""
        activation = ACTIVATIONS[name]
        out_data = activation.value(self.data, *params)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * activation.slope(self.data, out_data, *params), fresh=True)

        return _node(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        return self._activate("relu")

    def elu(self, alpha: float = 1.0) -> "Tensor":
        return self._activate("elu", alpha)

    def sigmoid(self) -> "Tensor":
        return self._activate("sigmoid")

    def tanh(self) -> "Tensor":
        return self._activate("tanh")

    def softplus(self) -> "Tensor":
        return self._activate("softplus")

    def clip(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, min_value, max_value)
        mask = np.ones_like(self.data)
        if min_value is not None:
            mask = mask * (self.data >= min_value)
        if max_value is not None:
            mask = mask * (self.data <= max_value)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, fresh=True)

        return _node(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy(), fresh=True)

        return _node(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded_out = out_data
            expanded_grad = grad
            if axis is not None and not keepdims:
                expanded_out = np.expand_dims(out_data, axis)
                expanded_grad = np.expand_dims(grad, axis)
            mask = (self.data == expanded_out).astype(self.data.dtype)
            # Split ties evenly so gradient checks remain well behaved.
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * expanded_grad, fresh=True)

        return _node(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return _node(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return _node(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            if basic:
                # A basic index selects each element at most once, so adding
                # through a view of the owned ``self.grad`` is exact.
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[index] += grad
            else:
                # An integer or boolean array may repeat elements: sum the
                # repeats first (unbuffered), then add that like any gradient.
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, fresh=True)

        return _node(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        The tensor is typically a scalar loss; for non-scalar tensors an
        explicit upstream gradient must be supplied.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(_as_array(grad), self.shape)

        # Topological order over the operations reachable from self.  Leaves and
        # constants have no closure to run, so only nodes with one are ordered.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)

        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------- #
# Free functions mirroring the tensor methods (convenience API)
# ---------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(grad: np.ndarray) -> None:
        offsets = np.cumsum([0] + sizes)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return _node(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            tensor._accumulate(np.squeeze(slab, axis=axis))

    return _node(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select ``a`` where condition else ``b``."""
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate_unbroadcast(grad * cond, fresh=True)
        b._accumulate_unbroadcast(grad * (~cond), fresh=True)

    return _node(out_data, (a, b), backward)
