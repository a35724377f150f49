"""Runtime layer: the metrics sink an engine and its shards share.

The library spawns no threads.  :class:`Runtime` runs the shard fan-out on
the caller's thread through :meth:`Runtime.run_inline`, under the engine's
metrics registry.
"""

from .runtime import Runtime

__all__ = ["Runtime"]
