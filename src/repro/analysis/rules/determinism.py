"""RPR008 — library randomness is seeded-instance only.

Results in this repo are pinned bit-identical across backends, shard counts,
and snapshot restore; every benchmark asserts it.  That only
holds because randomness flows through explicitly-seeded generators
(``np.random.default_rng(seed)``, RNG state in snapshots).  A single call to
the *global* RNG (``np.random.shuffle``, ``random.random``) in library code
breaks bit-identity unobservably — results still look plausible, they just
stop being reproducible.
"""

from __future__ import annotations

import ast

from ..context import ContextVisitor

#: numpy.random names that construct seeded/explicit generators — allowed.
_NUMPY_ALLOWED = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}

#: stdlib random names that construct explicit instances — allowed.
_STDLIB_ALLOWED = {"Random", "SystemRandom"}


class SeededRandomRule(ContextVisitor):
    """No global-RNG ``random``/``np.random`` module calls in ``src/``."""

    code = "RPR008"
    name = "seeded-rng-only"
    summary = "unseeded global random/np.random call in library code"
    rationale = (
        "Bit-identity is the repo's core contract (every benchmark asserts "
        "it); global-RNG calls make results run-order dependent and "
        "unreproducible without any test failing."
    )

    def check_call(self, node: ast.Call) -> None:
        if not self.ctx.in_src:
            return
        resolved = self.ctx.resolve_name(node.func)
        if resolved is None or "." not in resolved:
            return
        prefix, leaf = resolved.rsplit(".", 1)
        if prefix in ("numpy.random", "np.random") and leaf not in _NUMPY_ALLOWED:
            self.report(
                node,
                f"{resolved}() hits numpy's global RNG — use a seeded "
                "np.random.default_rng(...) instance (bit-identity contract)",
            )
        elif prefix == "random" and leaf not in _STDLIB_ALLOWED:
            self.report(
                node,
                f"{resolved}() hits the global stdlib RNG — use a seeded "
                "random.Random(...) instance (bit-identity contract)",
            )
