"""Gradient-descent optimizers for the numpy NN substrate."""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base class holding references to the parameters being optimized."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip global gradient norm in place and return the pre-clip norm."""
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float((param.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[List[np.ndarray]] = None
        if momentum > 0.0:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self._velocity is not None:
                self._velocity[index] = self.momentum * self._velocity[index] - self.lr * grad
                param.data += self._velocity[index]
            else:
                param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), the paper's de-facto training choice."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            # The textbook expressions, evaluated in the same order but into the
            # moment arrays and two scratch arrays instead of eight temporaries.
            first, second = self._m[index], self._v[index]
            first *= self.beta1
            first += (1.0 - self.beta1) * grad
            squared = grad ** 2
            squared *= 1.0 - self.beta2
            second *= self.beta2
            second += squared
            denominator = np.divide(second, bias_correction2, out=squared)
            np.sqrt(denominator, out=denominator)
            denominator += self.eps
            update = first / bias_correction1
            update *= self.lr
            update /= denominator
            param.data -= update


class StepLR:
    """Learning-rate schedule that multiplies the optimizer lr every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma
