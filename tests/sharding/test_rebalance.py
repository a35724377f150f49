"""Live resharding: plan resolution, staged builds and the checked swap."""

import numpy as np
import pytest

from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.selection import LinearScanSelector, PackedHammingSelector
from repro.sharding import (
    MergeShards,
    RebalancePlan,
    ShardAssignment,
    ShardedSelector,
    SplitShard,
    StaleRebalanceError,
    suggest_plan,
)
from repro.sharding.rebalance import rebalance, stage


def make_records(count, width=64, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, width), dtype=np.uint8)


def make_sharded(records, num_shards=4):
    return ShardedSelector(
        records,
        lambda recs: PackedHammingSelector(np.asarray(recs, dtype=np.uint8)),
        num_shards=num_shards,
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

    def test_split_and_merge_in_one_plan_renumber_together(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 1, 1, 2, 2, 3, 3]), num_shards=4
        )
        resolved = RebalancePlan([SplitShard(0), MergeShards((2, 3))]).resolve(
            assignment
        )
        # The merge frees slot 3; the split's second chunk takes the first
        # id past the surviving base shards, which is that same 3.
        assert resolved.num_shards == 4
        assert list(resolved.shard_of) == [0, 3, 1, 1, 2, 2, 2, 2]
        assert resolved.sources == {0: None, 1: 1, 2: None, 3: None}
        assert resolved.build_targets == [0, 2, 3]
        assert resolved.aliased == {1: 1}

    def test_shard_referenced_twice_is_rejected(self):
        assignment = ShardAssignment.from_shard_of(
            np.array([0, 0, 1, 1, 2, 2]), num_shards=3
        )
        plan = RebalancePlan([SplitShard(0), MergeShards((0, 1))])
        with pytest.raises(ValueError, match="at most once"):
            plan.resolve(assignment)

    def test_action_constructor_validation(self):
        with pytest.raises(ValueError):
            SplitShard(0, parts=1)
        with pytest.raises(ValueError):
            MergeShards((3,))
        with pytest.raises(ValueError):
            MergeShards((1, 1))

    def test_out_of_range_shard_is_rejected(self):
        assignment = ShardAssignment.from_shard_of(np.array([0, 0, 1, 1]), num_shards=2)
        with pytest.raises(ValueError, match="has 2 shards"):
            RebalancePlan([SplitShard(5)]).resolve(assignment)
        with pytest.raises(ValueError, match="has 2 shards"):
            RebalancePlan([MergeShards((0, 2))]).resolve(assignment)


class TestExecution:
    @pytest.mark.parametrize(
        "actions",
        [
            [SplitShard(0, parts=2)],
            [MergeShards((1, 2))],
            [SplitShard(1, parts=3), MergeShards((2, 3))],
            [SplitShard(0), SplitShard(3, parts=3)],
            [MergeShards((0, 1, 2, 3))],
        ],
        ids=["split", "merge", "split+merge", "split+split", "merge-all"],
    )
    def test_rebalance_is_bit_identical(self, actions):
        records = make_records(260)
        sharded = make_sharded(records, num_shards=4)
        queries = [records[i] for i in (0, 17, 130)]
        before = [sorted(sharded.query(q, 14)) for q in queries]

        report = rebalance(sharded, RebalancePlan(actions))

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

        report = rebalance(sharded, RebalancePlan([MergeShards((1, 2))]))

        assert report.aliased_targets  # at least shards 0 and 3
        for old_id in untouched:
            new_id = old_id if old_id < 1 else old_id - 1 if old_id > 2 else old_id
            assert sharded.shard(new_id) is before[old_id]

    def test_a_swap_after_an_update_since_staging_is_refused(self):
        records = make_records(180)
        sharded = make_sharded(records, num_shards=3)
        plan = RebalancePlan([SplitShard(0, parts=2)])
        staged = stage(sharded, plan)

        # An insert and a delete land between staging and the swap.
        inserted = make_records(7, seed=99)
        sharded.apply_operation(UpdateOperation("insert", inserted))
        sharded.apply_operation(UpdateOperation("delete", np.array([4, 40, 170])))
        old_shards = sharded.shards
        with pytest.raises(StaleRebalanceError, match="changed 2 time.*stage the plan again"):
            sharded.swap_layout(staged)

        # The old layout keeps serving, with both updates in it.
        assert sharded.num_shards == 3
        assert all(new is old for new, old in zip(sharded.shards, old_shards))
        expected = np.delete(np.concatenate([records, inserted]), [4, 40, 170], axis=0)
        scan = LinearScanSelector(expected, distance=get_distance("hamming"))
        queries = [records[9], records[100], inserted[2]]
        before = [sharded.query(query, 14) for query in queries]
        assert before == [scan.query(query, 14) for query in queries]

        # A fresh staging swaps in, bit-identically.
        sharded.swap_layout(stage(sharded, plan))
        assert sharded.num_shards == 4
        assert [sharded.query(query, 14) for query in queries] == before

        # Of two stagings of one layout, only the first swap goes in.
        first, second = stage(sharded, plan), stage(sharded, plan)
        sharded.swap_layout(first)
        with pytest.raises(StaleRebalanceError, match="changed 1 time"):
            sharded.swap_layout(second)
        assert sharded.num_shards == 5
        assert [sharded.query(query, 14) for query in queries] == before

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
                rebalance(sharded, RebalancePlan([SplitShard(0)]))
        finally:
            sharded.selector_factory = original_factory
        assert sharded.num_shards == 3
        assert sorted(sharded.query(query, 14)) == expected
        # A fresh rebalance is possible after the failed one.
        rebalance(sharded, RebalancePlan([SplitShard(0)]))
        assert sorted(sharded.query(query, 14)) == expected

    def test_shard_count_change_routes_inserts_at_the_new_width(self):
        sharded = make_sharded(make_records(90), num_shards=3)
        rebalance(sharded, RebalancePlan([SplitShard(0, parts=2)]))
        assert sharded.num_shards == sharded.assignment.num_shards == 4
        # Routing against the new width works (inserts land in range).
        inserted = make_records(40, seed=1)
        routing = sharded.route_operation(UpdateOperation("insert", inserted))
        assert set(routing.touched_shards) <= {0, 1, 2, 3}
        assert 3 in routing.touched_shards
        sharded.apply_routed(routing)
        assert len(sharded) == 130
        query = inserted[0]
        assert sorted(sharded.query(query, 14)) == reference_ids(sharded, query, 14)

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
        rebalance(sharded, RebalancePlan([MergeShards((victim, 3))]))
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
