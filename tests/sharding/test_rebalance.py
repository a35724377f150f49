"""Live resharding: plan resolution, journaled execution, engine swap."""

import numpy as np
import pytest

from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.selection import LinearScanSelector, PackedHammingSelector
from repro.sharding import (
    HashPartitioner,
    MergeShards,
    MigrateRange,
    RebalancePlan,
    Rebalancer,
    ShardAssignment,
    ShardedSelector,
    SplitShard,
    suggest_plan,
)


def make_records(count, width=64, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, width), dtype=np.uint8)


def make_sharded(records, num_shards=4, **kwargs):
    return ShardedSelector(
        records,
        lambda recs: PackedHammingSelector(np.asarray(recs, dtype=np.uint8)),
        num_shards=num_shards,
        **kwargs,
    )


def reference_ids(selector, record, threshold):
    scan = LinearScanSelector(
        np.asarray(selector.dataset), distance=get_distance("hamming")
    )
    return sorted(scan.query(record, threshold))


class TestPlanResolution:
    def test_split_appends_new_shards(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 0, 0, 1, 1]), num_shards=2
        )
        resolved = RebalancePlan([SplitShard(0, parts=2)]).resolve(assignment)
        assert resolved.num_shards == 3
        # Chunk 0 stays on shard 0; chunk 1 becomes the appended shard 2.
        assert list(resolved.shard_of) == [0, 0, 2, 2, 1, 1]
        assert resolved.sources == {0: None, 1: 1, 2: None}
        assert resolved.build_targets == [0, 2]
        assert resolved.aliased == {1: 1}

    def test_merge_frees_the_higher_slot_and_renumbers(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 1, 1, 2, 2, 2]), num_shards=3
        )
        resolved = RebalancePlan([MergeShards((0, 1))]).resolve(assignment)
        assert resolved.num_shards == 2
        # Merge lands on min(0, 1) = 0; old shard 2 renumbers down to 1.
        assert list(resolved.shard_of) == [0, 0, 0, 1, 1, 1]
        assert resolved.sources == {0: None, 1: 2}

    def test_migrate_moves_the_range(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 1, 1, 2, 2]), num_shards=3
        )
        resolved = RebalancePlan([MigrateRange(0, 2, to_shard=2)]).resolve(assignment)
        assert list(resolved.shard_of) == [2, 2, 1, 1, 2, 2]
        # Source 0 drained and target 2 grew: both must rebuild; 1 aliases.
        assert resolved.sources == {0: None, 1: 1, 2: None}

    def test_migrate_of_records_already_on_target_is_a_noop(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([2, 2, 1, 1, 2, 2]), num_shards=3
        )
        resolved = RebalancePlan([MigrateRange(0, 2, to_shard=2)]).resolve(assignment)
        assert resolved.sources == {0: 0, 1: 1, 2: 2}
        assert resolved.build_targets == []

    def test_shard_referenced_twice_is_rejected(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 1, 1, 2, 2]), num_shards=3
        )
        plan = RebalancePlan([SplitShard(0), MergeShards((0, 1))])
        with pytest.raises(ValueError, match="at most once"):
            plan.resolve(assignment)

    def test_overlapping_migrate_ranges_are_rejected(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 1, 1, 2, 2]), num_shards=3
        )
        plan = RebalancePlan(
            [MigrateRange(0, 3, to_shard=2), MigrateRange(2, 4, to_shard=1)]
        )
        with pytest.raises(ValueError, match="overlap"):
            plan.resolve(assignment)

    def test_migrate_draining_a_split_shard_is_rejected(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 0, 0, 1, 1]), num_shards=2
        )
        plan = RebalancePlan([SplitShard(0), MigrateRange(0, 2, to_shard=1)])
        with pytest.raises(ValueError, match="drains"):
            plan.resolve(assignment)

    def test_action_constructor_validation(self):
        with pytest.raises(ValueError):
            SplitShard(0, parts=1)
        with pytest.raises(ValueError):
            MergeShards((3,))
        with pytest.raises(ValueError):
            MergeShards((1, 1))
        with pytest.raises(ValueError):
            MigrateRange(5, 5, to_shard=0)

    def test_out_of_range_shard_and_range_are_rejected(self):
        assignment = ShardAssignment.from_shard_of(np.array([0, 0, 1, 1]), num_shards=2)
        with pytest.raises(ValueError, match="has 2 shards"):
            RebalancePlan([SplitShard(5)]).resolve(assignment)
        with pytest.raises(ValueError, match="exceeds"):
            RebalancePlan([MigrateRange(0, 99, to_shard=1)]).resolve(assignment)


class TestExecution:
    @pytest.mark.parametrize(
        "actions",
        [
            [SplitShard(0, parts=2)],
            [MergeShards((1, 2))],
            [MigrateRange(10, 60, to_shard=3)],
            [SplitShard(1, parts=3), MergeShards((2, 3))],
        ],
        ids=["split", "merge", "migrate", "split+merge"],
    )
    def test_rebalance_is_bit_identical(self, actions):
        records = make_records(260)
        sharded = make_sharded(records, num_shards=4)
        queries = [records[i] for i in (0, 17, 130)]
        before = [sorted(sharded.query(q, 14)) for q in queries]

        report = Rebalancer().execute(sharded, RebalancePlan(actions))

        assert len(sharded) == len(records)
        for query, expected in zip(queries, before):
            assert sorted(sharded.query(query, 14)) == expected
            assert sorted(sharded.query(query, 14)) == reference_ids(
                sharded, query, 14
            )
        assert report.moved_records == sum(
            len(sharded._assignment.global_ids[t]) for t in report.built_targets
        )

    def test_untouched_shards_are_aliased_not_rebuilt(self):
        records = make_records(200)
        sharded = make_sharded(records, num_shards=4)
        untouched = [s for s in range(4) if s not in (1, 2)]
        before = {s: sharded.shard(s) for s in untouched}

        report = Rebalancer().execute(sharded, RebalancePlan([MergeShards((1, 2))]))

        assert report.aliased_targets  # at least shards 0 and 3
        for old_id in untouched:
            new_id = old_id if old_id < 1 else old_id - 1 if old_id > 2 else old_id
            assert sharded.shard(new_id) is before[old_id]

    def test_mid_rebalance_updates_are_journaled_and_replayed(self):
        records = make_records(180)
        sharded = make_sharded(records, num_shards=3)

        # Updates arrive after staging, before the commit.
        rebalancer = Rebalancer()
        staged = rebalancer.begin(sharded, RebalancePlan([SplitShard(0, parts=2)]))
        sharded.apply_operation(UpdateOperation("insert", make_records(7, seed=99)))
        sharded.apply_operation(UpdateOperation("delete", np.array([4, 40, 170])))
        report = rebalancer.commit(staged)
        assert report.journal_replayed == 2
        assert len(sharded) == 180 + 7 - 3
        assert sharded.stats()["journal_depth"] == 0
        query = records[9]
        assert sorted(sharded.query(query, 14)) == reference_ids(sharded, query, 14)

    def test_mutated_alias_candidate_is_rebuilt_from_base_plus_journal(self):
        records = make_records(160)
        sharded = make_sharded(records, num_shards=4)
        positions = np.flatnonzero(np.asarray(sharded._assignment.shard_of) == 3)[:2]

        # Rows on an otherwise-aliased shard are deleted mid-rebalance.
        rebalancer = Rebalancer()
        staged = rebalancer.begin(sharded, RebalancePlan([MergeShards((0, 1))]))
        sharded.apply_operation(UpdateOperation("delete", positions))
        report = rebalancer.commit(staged)
        # Shard 3 was an alias candidate but mutated mid-flight: the commit
        # must fall back to rebuilding it from base records, then journal
        # replay re-applies the delete — never silently losing either side.
        assert report.journal_replayed == 1
        assert len(sharded) == 158
        query = records[25]
        assert sorted(sharded.query(query, 14)) == reference_ids(sharded, query, 14)

    def test_failure_aborts_and_the_old_layout_keeps_serving(self):
        records = make_records(120)
        sharded = make_sharded(records, num_shards=3)
        query = records[3]
        expected = sorted(sharded.query(query, 14))
        boom = RuntimeError("factory exploded")
        original_factory = sharded.selector_factory

        def exploding_factory(recs):
            raise boom

        sharded.selector_factory = exploding_factory
        try:
            with pytest.raises(RuntimeError, match="factory exploded"):
                Rebalancer().execute(sharded, RebalancePlan([SplitShard(0)]))
        finally:
            sharded.selector_factory = original_factory
        assert sharded.stats()["rebalance_in_flight"] is False
        assert sorted(sharded.query(query, 14)) == expected
        # A fresh rebalance is possible after the abort.
        Rebalancer().execute(sharded, RebalancePlan([SplitShard(0)]))
        assert sorted(sharded.query(query, 14)) == expected

    def test_concurrent_rebalance_is_rejected(self):
        sharded = make_sharded(make_records(60), num_shards=2)
        sharded.begin_rebalance()
        with pytest.raises(RuntimeError, match="rebalance"):
            Rebalancer().execute(sharded, RebalancePlan([SplitShard(0)]))
        assert sharded.abort_rebalance() == 0

    def test_shard_count_change_derives_a_partitioner(self):
        sharded = make_sharded(make_records(90), num_shards=3)
        Rebalancer().execute(sharded, RebalancePlan([SplitShard(0, parts=2)]))
        assert sharded.num_shards == 4
        assert sharded.partitioner.num_shards == 4
        assert isinstance(sharded.partitioner, HashPartitioner)
        # Routing against the new width works (inserts land in range).
        sharded.apply_operation(UpdateOperation("insert", make_records(5, seed=1)))
        assert len(sharded) == 95

    def test_emptied_shard_still_queries_merges_and_snapshots(self, tmp_path):
        from repro.store import load_component, save_component

        records = make_records(80)
        sharded = make_sharded(records, num_shards=4)
        victim = 2
        positions = np.flatnonzero(np.asarray(sharded._assignment.shard_of) == victim)
        sharded.apply_operation(UpdateOperation("delete", positions))
        assert len(sharded.shard(victim)) == 0
        query = records[1]
        assert sorted(sharded.query(query, 14)) == reference_ids(sharded, query, 14)

        save_component(sharded, tmp_path / "sharded")
        restored = load_component(tmp_path / "sharded")
        assert sorted(restored.query(query, 14)) == sorted(sharded.query(query, 14))

        # A rebalance can then merge the empty shard away entirely.
        Rebalancer().execute(sharded, RebalancePlan([MergeShards((victim, 3))]))
        assert sharded.num_shards == 3
        assert sorted(sharded.query(query, 14)) == reference_ids(sharded, query, 14)


class TestSuggestPlan:
    def test_balanced_layout_suggests_nothing(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 1, 1, 2, 2]), num_shards=3
        )
        assert suggest_plan(assignment) is None

    def test_oversized_shard_is_split(self):
        shard_of = np.array([0] * 30 + [1] * 5 + [2] * 5)
        plan = suggest_plan(ShardAssignment.from_shard_of(shard_of, num_shards=3))
        assert plan is not None
        assert any(
            isinstance(a, SplitShard) and a.shard_id == 0 for a in plan.actions
        )

    def test_cold_shards_are_merged(self):
        shard_of = np.array([0] * 40 + [1] * 40 + [2] * 1 + [3] * 1)
        plan = suggest_plan(ShardAssignment.from_shard_of(shard_of, num_shards=4))
        assert plan is not None
        merges = [a for a in plan.actions if isinstance(a, MergeShards)]
        assert merges and set(merges[0].shard_ids) == {2, 3}
