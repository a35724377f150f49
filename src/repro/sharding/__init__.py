"""Horizontal scale-out: partitioned exact selection and sharded serving.

The monotone-curve guarantee composes under partitioning — a sum of per-shard
monotone cardinality curves is itself monotone — so both halves of the stack
shard cleanly:

* :class:`ShardedSelector` answers exact selections by fan-out (a loop on
  the caller) + merge over per-shard indexes, bit-identical to the unsharded
  selector;
* :class:`MergedShardEstimator` backs a sharded attribute's merged endpoint
  beside its per-shard ones (``name#shardK``): its curves are the sums of
  the shard estimators' curves, computed in one service request;
* updates route per shard (:meth:`ShardedSelector.route_operation`), so an
  insert or delete relabels/retrains only the shard it touched;
* records land on shards by a content hash
  (:func:`repro.sharding.partitioner.assign_shards`); the shard count is the
  only setting;
* :func:`repro.sharding.rebalance.rebalance` carries out a
  :class:`RebalancePlan` (split hot shards, merge cold ones): the changed
  shards are built from the base rows on the caller while the old layout
  serves, then swapped in atomically — unless an update landed meanwhile,
  which raises :class:`StaleRebalanceError` with the old layout still
  serving.
"""

from .group import MergedShardEstimator
from .partitioner import ShardAssignment
from .rebalance import (
    MergeShards,
    RebalancePlan,
    RebalanceReport,
    SplitShard,
    suggest_plan,
)
from .selector import ShardedSelector, ShardRouting, StaleRebalanceError

__all__ = [
    "ShardAssignment",
    "ShardedSelector",
    "ShardRouting",
    "StaleRebalanceError",
    "MergedShardEstimator",
    "RebalancePlan",
    "RebalanceReport",
    "SplitShard",
    "MergeShards",
    "suggest_plan",
]
