"""Rule registry: one visitor class per rule, RPR001–RPR010.

Each rule class carries its ``code``, a one-line ``summary``, and a
``rationale`` naming the historical bug or pinned invariant it encodes —
``python -m repro.analysis --list-rules`` and ``docs/analysis_rules.md``
render straight from these attributes.
"""

from .concurrency import AdHocThreadRule
from .snapshots import SnapshotHookPairRule
from .timing import MonotonicTimeRule
from .exceptions import SilentExceptionRule
from .locking import LockDisciplineRule
from .caching import FrozenCacheArrayRule
from .determinism import SeededRandomRule
from .naming import MetricNamingRule
from .updates import UpdatePathRebuildRule

#: Every shipped rule, in code order.
ALL_RULES = [
    AdHocThreadRule,
    SnapshotHookPairRule,
    MonotonicTimeRule,
    SilentExceptionRule,
    LockDisciplineRule,
    FrozenCacheArrayRule,
    SeededRandomRule,
    MetricNamingRule,
    UpdatePathRebuildRule,
]

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "AdHocThreadRule",
    "SnapshotHookPairRule",
    "MonotonicTimeRule",
    "SilentExceptionRule",
    "LockDisciplineRule",
    "FrozenCacheArrayRule",
    "MetricNamingRule",
    "SeededRandomRule",
    "UpdatePathRebuildRule",
]
