"""The runtime: two no-ops an engine still answers to.

The library owns no threads.  Every step runs on the caller's thread — the
shard fan-out is a loop, and a rebalance builds its shards in a
comprehension — and every metric lands in the engine's serving telemetry
registry (``engine.service.telemetry.metrics``).  So a :class:`Runtime`
holds nothing.  Callers may still run the library from several threads of
their own; the service and selector locks make that safe.
"""

from __future__ import annotations

from typing import Any, Dict


class Runtime:
    """Stateless: ``stats()`` and ``shutdown()`` only."""

    # ``stats()`` and ``shutdown()`` are kept only because the e2e benchmark
    # harness calls them; they go with ROADMAP harness-honesty item (e).
    def stats(self) -> Dict[str, Any]:
        """Always ``{}``: the runtime holds no pools."""
        return {}

    def shutdown(self) -> None:
        """A no-op: there is nothing to stop."""
