"""A lenient delete list means one thing: the distinct positions within [0, n).

Every entry point that forgives a delete list — ``datasets.updates.apply_operation``
on a plain list, ``ShardedSelector.apply_operation``, ``engine.apply_update``
(unsharded, unsharded through a routed §8 manager, sharded) and
``IncrementalUpdateManager.process`` — must leave the same rows in the same
order, for lists with repeats, negatives and positions past the end.  The
strict ``selector.delete_many`` keeps refusing what it always refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import UniformSamplingEstimator
from repro.core import IncrementalUpdateManager
from repro.datasets.updates import UpdateOperation, apply_operation
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.selection import PackedHammingSelector, PigeonholeHammingSelector, default_selector
from repro.sharding import ShardedSelector

ROWS, WIDTH = 40, 8
#: Row ``i`` spells ``i`` in binary, so "the same rows in the same order" is
#: a comparison of integers.
RECORDS = ((np.arange(ROWS)[:, None] >> np.arange(WIDTH)) & 1).astype(np.uint8)


def ids(rows):
    return [int(np.asarray(row) @ (1 << np.arange(WIDTH))) for row in rows]


def estimator(rows, seed=0):
    return UniformSamplingEstimator(rows, "hamming", sample_ratio=0.5, seed=seed)


def manager_over(selector):
    # No labelled examples: processing costs the index delta and nothing else.
    return IncrementalUpdateManager(estimator(selector.dataset), selector, [], [])


def through_plain_list(operation):
    return ids(apply_operation(list(RECORDS), operation))


def through_sharded_selector(operation):
    selector = ShardedSelector(RECORDS, PackedHammingSelector, num_shards=4)
    selector.apply_operation(operation)
    return ids(selector.dataset)


def through_manager(operation):
    manager = manager_over(default_selector("hamming", RECORDS))
    manager.process(operation)
    return ids(manager.records)


def through_engine(operation, sharded=False, managed=False):
    engine = SimilarityQueryEngine()
    if sharded:
        binding = engine.register_sharded_attribute(
            "a", RECORDS, "hamming", estimator, num_shards=4, theta_max=WIDTH
        )
    else:
        binding = engine.register_attribute(
            "a", RECORDS, "hamming", estimator(RECORDS), theta_max=WIDTH
        )
    if managed and sharded:
        engine.attach_shard_managers(
            "a", [manager_over(shard) for shard in binding.selector.shards]
        )
    elif managed:
        engine.attach_manager("a", manager_over(binding.selector))
    engine.apply_update("a", operation)
    column, index = ids(binding.records), ids(binding.selector.dataset)
    assert column == index  # the column and its index absorbed the same delete
    return column


LENIENT = {
    "apply_operation": through_plain_list,
    "ShardedSelector.apply_operation": through_sharded_selector,
    "IncrementalUpdateManager.process": through_manager,
    "engine.apply_update": through_engine,
    "engine.apply_update, routed manager": lambda op: through_engine(op, managed=True),
    "engine.apply_update, sharded": lambda op: through_engine(op, sharded=True),
    "engine.apply_update, sharded, routed managers": lambda op: through_engine(
        op, sharded=True, managed=True
    ),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=ROWS + 19), max_size=11))
def test_every_lenient_entry_point_removes_the_same_rows(positions):
    named = set(positions)
    expected = [i for i in range(ROWS) if i not in named]
    for label, path in LENIENT.items():
        assert path(UpdateOperation("delete", list(positions))) == expected, label


@pytest.mark.parametrize("label", sorted(LENIENT))
def test_a_repeated_position_names_one_row(label):
    """``[16, 16]`` once removed rows 16 *and* 17 through ``apply_operation``
    and ``ShardedSelector.apply_operation``; a negative position and one past
    the end name no row."""
    survivors = LENIENT[label](UpdateOperation("delete", [16, -3, 16, ROWS + 2]))
    assert survivors == [i for i in range(ROWS) if i != 16]


#: Updates that resolve to no row: every position out of range, nothing to insert.
NO_OPS = [
    UpdateOperation("delete", [10**6]),
    UpdateOperation("insert", []),
    UpdateOperation("delete", [-1, ROWS]),
]


@pytest.mark.parametrize("mode", ["gph", "gph, routed manager", "sharded"])
def test_an_update_that_changes_no_row_changes_nothing(mode):
    """At the parent, ``delete [10**6]`` then ``insert []`` on a GPH attribute
    recorded three invalidations, rebuilt ``h::part0`` and turned the next
    repeated query from a hit into three misses."""
    engine = SimilarityQueryEngine()
    if mode == "sharded":
        binding = engine.register_sharded_attribute(
            "h", RECORDS, "hamming", estimator, num_shards=4, theta_max=WIDTH
        )
    else:
        binding = engine.register_attribute(
            "h", RECORDS, "hamming", estimator(RECORDS), theta_max=WIDTH,
            selector=PigeonholeHammingSelector(RECORDS, part_size=4),
        )
    if mode == "gph, routed manager":
        engine.attach_manager("h", manager_over(binding.selector))
    registry, cache = engine.service.registry, engine.service.cache
    families = binding.part_endpoints + binding.shard_endpoints + [binding.endpoint]
    query = SimilarityPredicate("h", RECORDS[5], 2.0)
    engine.execute(query)
    served = [registry.get(endpoint).estimator for endpoint in families]
    invalidations, misses, hits = cache.invalidations, cache.misses, cache.hits
    for operation in NO_OPS:
        report = engine.apply_update("h", operation)
        if mode == "sharded":
            assert report.touched_shards == [] and report.dataset_size == ROWS
        elif mode == "gph":
            assert report is None
        else:
            assert not report.retrained and np.isnan(report.validation_msle_before)
    engine.execute(query)
    assert (cache.invalidations, cache.misses) == (invalidations, misses)
    assert cache.hits > hits
    assert all(registry.get(e).estimator is s for e, s in zip(families, served))
    assert ids(binding.records) == ids(binding.selector.dataset) == list(range(ROWS))


def test_manager_skips_an_update_that_changes_no_row(monkeypatch):
    """No invalidation, no relabel and no validation pass; a report all the same."""
    selector = default_selector("hamming", RECORDS)
    manager = manager_over(selector)

    def must_not_run(*_args):
        raise AssertionError("an empty update reached the §8 loop")

    for name in ("_invalidate_serving_cache", "_validation_msle", "_retrain_if_degraded"):
        monkeypatch.setattr(manager, name, must_not_run)
    for index, operation in enumerate(NO_OPS):
        report = manager.process(operation, index)
        assert (report.operation_index, report.dataset_size) == (index, ROWS)
        assert not report.retrained and report.epochs_run == 0
    assert manager._pending_train_inserted == manager._pending_train_removed == []
    assert selector.mutation_count == 0


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
def test_strict_delete_many_still_refuses(sharded):
    selector = (
        ShardedSelector(RECORDS, PackedHammingSelector, num_shards=4)
        if sharded
        else default_selector("hamming", RECORDS)
    )
    with pytest.raises(ValueError, match="duplicate"):
        selector.delete_many([16, 16])
    with pytest.raises(IndexError):
        selector.delete_many([3, ROWS])
    with pytest.raises(IndexError):
        selector.delete_many([-1])
    assert len(selector) == ROWS
