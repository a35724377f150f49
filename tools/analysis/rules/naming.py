"""RPR009 — metric names follow the Prometheus conventions.

Every metric in the repo is a valid Prometheus identifier
(``[a-z_][a-z0-9_]*``) and every *counter* name ends in ``_total`` —
the exposition format's convention, and what ``to_prometheus()`` and
``docs/metrics_catalog.md`` key on.  A camelCase histogram or a
``_total``-less counter slips through at runtime (the registry takes any string) and only
breaks later, when a scrape query or a catalog row silently matches
nothing.

The rule checks every statically-knowable creation site: registry factory
calls (``registry.counter("...")`` / ``.histogram``) and direct
constructions of the :mod:`repro.obs.metrics` classes.  Dynamic names
(variables, f-strings) are invisible to it by design — the convention is
enforced where names are spelled out, which is everywhere in this repo.
"""

from __future__ import annotations

import ast
import re

from ..context import ContextVisitor

#: Prometheus metric-name grammar (the strict lowercase subset this repo uses).
_IDENTIFIER_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Registry factory method names, mapped to the metric kind they create.
_FACTORY_KINDS = {"counter": "counter", "histogram": "histogram"}

#: repro.obs.metrics class constructors (resolved through import aliases).
_CLASS_KINDS = {"Counter": "counter", "Histogram": "histogram"}


class MetricNamingRule(ContextVisitor):
    """Metric names are Prometheus identifiers; counters end in ``_total``."""

    code = "RPR009"
    name = "metric-naming"
    summary = "metric name breaks the Prometheus naming conventions"
    rationale = (
        "the Prometheus exposition and the metrics catalog key on metric names; "
        "a non-identifier name or a _total-less counter silently matches "
        "nothing downstream instead of failing at creation."
    )

    def _metric_kind(self, node: ast.Call) -> "str | None":
        """The metric kind this call creates, or ``None`` if it isn't one."""
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _FACTORY_KINDS:
            # Guard against unrelated methods that share a factory name
            # (np.histogram, collections.Counter aliases): a metric factory
            # always takes the metric name as a string first argument.
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                resolved = self.ctx.resolve_name(func)
                if resolved is not None and resolved.startswith(("numpy.", "np.")):
                    return None
                return _FACTORY_KINDS[func.attr]
            return None
        resolved = self.ctx.resolve_name(func)
        if resolved is None:
            return None
        leaf = resolved.rsplit(".", 1)[-1]
        if leaf in _CLASS_KINDS and "obs.metrics" in resolved:
            return _CLASS_KINDS[leaf]
        return None

    def check_call(self, node: ast.Call) -> None:
        kind = self._metric_kind(node)
        if kind is None:
            return
        name_node: "ast.expr | None" = node.args[0] if node.args else None
        if name_node is None:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_node = keyword.value
                    break
        if not (
            isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)
        ):
            return  # dynamic names cannot be checked statically
        metric_name = name_node.value
        if not _IDENTIFIER_RE.match(metric_name):
            self.report(
                node,
                f"metric name {metric_name!r} is not a valid Prometheus "
                "identifier ([a-z_][a-z0-9_]*)",
            )
        elif kind == "counter" and not metric_name.endswith("_total"):
            self.report(
                node,
                f"counter {metric_name!r} must end in '_total' (the "
                "Prometheus counter convention the exposition keys on)",
            )
