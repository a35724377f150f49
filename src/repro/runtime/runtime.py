"""The runtime: where an engine's ambient metrics land.

The library owns no threads.  Every step runs on the caller's thread — the
shard fan-out is a loop (:meth:`Runtime.run_inline`), and a rebalance builds
its shards in a comprehension — so a :class:`Runtime` is only the metrics
sink an engine and its sharded selectors share: the engine's telemetry
registry, pushed around the shard loop so per-shard rows land in it.
Callers may still run the library from several threads of their own; the
service and selector locks make that safe.

Snapshots persist the ``telemetry`` reference, which keeps the engine and its
sharded selectors on ONE runtime after restore.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..obs.metrics import default_registry, use_registry


class Runtime:
    """The metrics sink an engine and its sharded selectors share."""

    def __init__(self, telemetry: Optional[Any] = None) -> None:
        #: A :class:`~repro.serving.ServingTelemetry` (or compatible) sink.
        self.telemetry = telemetry

    def run_inline(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` on the calling thread with the telemetry's registry (the
        process default without telemetry) pushed, so ambient instrumentation
        inside it (shard-op counters, service histograms) lands there."""
        registry = getattr(self.telemetry, "metrics", None)
        with use_registry(registry if registry is not None else default_registry()):
            return fn(*args, **kwargs)

    # ``stats()`` and ``shutdown()`` are kept only because the e2e benchmark
    # harness calls them; they go with ROADMAP benchmark-only item (e).
    def stats(self) -> Dict[str, Any]:
        """Always ``{}``: the runtime holds no pools."""
        return {}

    def shutdown(self) -> None:
        """A no-op: there is nothing to stop."""

    # Snapshot hooks (repro.store)
    def __snapshot_state__(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        # Format-8 snapshots written while the runtime kept worker pools
        # persist an (always empty) pool registry; it no longer exists.
        state.pop("_pools", None)
        self.__dict__.update(state)
