"""Runtime layer: what is left of the old execution layer.

The library spawns no threads and keeps no runtime state.  :class:`Runtime`
is two no-ops the end-to-end benchmark harness still calls.
"""

from .runtime import Runtime

__all__ = ["Runtime"]
