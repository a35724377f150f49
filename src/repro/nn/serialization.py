"""Model size: the bytes of a module's flat ``state_dict`` as an ``.npz`` archive.

The model-size benchmark (paper Table 9) reports this size; models are
persisted with the engine by :mod:`repro.store`.
"""

from __future__ import annotations

import io

import numpy as np

from .module import Module


def serialized_size(module: Module) -> int:
    """Return the size in bytes of the module serialized to an in-memory npz
    (what the benchmarks report as "model size")."""
    buffer = io.BytesIO()
    np.savez(buffer, **module.state_dict())
    return buffer.getbuffer().nbytes
