"""Module base class and parameter management for the numpy NN substrate."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Module:
    """Base class for all neural-network building blocks.

    Mirrors the familiar torch-style API: submodules and parameters assigned as
    attributes are discovered automatically, ``parameters()`` iterates over all
    trainable tensors, and ``state_dict``/``load_state_dict`` provide flat
    name-to-array (de)serialization used by :mod:`repro.nn.serialization`.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------ #
    # Attribute plumbing
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> "Module":
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)
        return module

    # ------------------------------------------------------------------ #
    # Parameter iteration
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Tensor]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return int(sum(param.size for param in self.parameters()))

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Train / eval switch
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter names to copied arrays."""
        return {name: np.array(param.data, copy=True) for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from a flat mapping produced by ``state_dict``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = np.array(value, copy=True)

    def size_in_bytes(self) -> int:
        """Serialized size of all parameters (used by the model-size benchmark)."""
        return int(sum(param.data.nbytes for param in self.parameters()))

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def infer(self, *args, **kwargs):
        """``forward`` on plain arrays: live ``.data`` in, no graph, no gradient."""
        raise NotImplementedError(f"{type(self).__name__} has no graph-free form")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
