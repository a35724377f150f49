"""Horizontal scale-out: partitioned exact selection and sharded serving.

The monotone-curve guarantee composes under partitioning — a sum of per-shard
monotone cardinality curves is itself monotone — so both halves of the stack
shard cleanly:

* :class:`ShardedSelector` answers exact selections by fan-out (a loop on
  the caller) + merge over per-shard indexes, bit-identical to the unsharded
  selector;
* :class:`ShardedEstimatorGroup` serves one endpoint per shard
  (``name#shardK``) plus a merged endpoint whose curves are the sums of the
  shard estimators' curves, computed in one service request;
* updates route per shard (:meth:`ShardedSelector.route_operation`), so an
  insert or delete relabels/retrains only the shard it touched;
* :class:`Rebalancer` executes :class:`RebalancePlan` s (split hot shards,
  merge cold ones, migrate id ranges) from the base rows on the caller
  while the old layout serves, committing with an atomic swap after
  replaying mid-rebalance updates from the journal.
"""

from .group import MergedShardEstimator, ShardedEstimatorGroup
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    ShardAssignment,
    get_partitioner,
)
from .rebalance import (
    MergeShards,
    MigrateRange,
    RebalancePlan,
    RebalanceReport,
    Rebalancer,
    SplitShard,
    suggest_plan,
)
from .selector import ShardedSelector, ShardLayoutSnapshot, ShardRouting

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RoundRobinPartitioner",
    "ShardAssignment",
    "get_partitioner",
    "ShardedSelector",
    "ShardLayoutSnapshot",
    "ShardRouting",
    "ShardedEstimatorGroup",
    "MergedShardEstimator",
    "RebalancePlan",
    "RebalanceReport",
    "Rebalancer",
    "SplitShard",
    "MergeShards",
    "MigrateRange",
    "suggest_plan",
]
