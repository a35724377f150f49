"""The merged endpoint's stacked pass: one featurization, one model pass.

A group's CardNet shards with one configuration and one extractor state run
as one inference over parameters with a leading shard axis; their
parameters are views of that stack.  After every event that moves a shard's
parameters (an in-place write, ``load_state_dict``, a routed retrain, a
snapshot round trip) the merged curve must still equal the in-order sum of
fresh per-shard curves, and a group whose shards cannot share the pass
(other estimator types, differing extractors) must fall back shard by shard.
"""

import numpy as np
import pytest

from test_sharding import ExactCountEstimator

from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.datasets.synthetic import Dataset
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import SimilarityQueryEngine
from repro.selection import LinearScanSelector
from repro.store import load_engine, save_engine
from repro.workloads.builder import relabel

NUM_SHARDS = 3


def shard_dataset(parent, records, extra=None):
    return Dataset(
        name=parent.name,
        records=records,
        distance_name=parent.distance_name,
        theta_max=parent.theta_max,
        cluster_labels=np.zeros(len(records), dtype=np.int64),
        extra=dict(parent.extra) if extra is None else extra,
    )


def cardnet_factory(parent, workload=None, extra=None):
    """One CardNet-A per shard; with a workload, trained on the shard's labels."""

    def factory(shard_records, shard_index):
        estimator = CardNetEstimator.for_dataset(
            shard_dataset(parent, shard_records, extra), accelerated=True,
            epochs=1, vae_pretrain_epochs=1, seed=shard_index,
        )
        if workload is not None:
            selector = LinearScanSelector(shard_records, get_distance(parent.distance_name))
            estimator.fit(relabel(workload.train[:24], selector))
        return estimator

    return factory


def fresh_sum(group, records):
    """Σ over shards, in shard order, of each shard estimator's own curves."""
    total = np.zeros((len(records), len(group.curve_thetas)))
    for estimator in group.estimators:
        total += estimator.estimate_curve_many(records, group.curve_thetas)
    return total


def merged_curves(engine, name, records):
    """The merged endpoint's curves from a cold cache (one stacked pass)."""
    engine.service.invalidate(name)
    return engine.service.estimate_curve_many(name, records)


@pytest.fixture
def engine(binary_dataset, binary_workload):
    engine = SimilarityQueryEngine()
    engine.register_sharded_attribute(
        "hm", binary_dataset.records, "hamming",
        cardnet_factory(binary_dataset, binary_workload),
        num_shards=NUM_SHARDS, theta_max=binary_dataset.theta_max,
    )
    return engine


@pytest.fixture
def records(binary_dataset):
    return list(binary_dataset.records[:9])


class TestStackCoherence:
    def test_every_cardnet_shard_runs_in_one_pass_over_views_of_the_stack(
        self, engine, records
    ):
        group = engine.shard_group("hm")
        assert np.array_equal(merged_curves(engine, "hm", records), fresh_sum(group, records))
        stack = group.merged._stack
        assert stack.members == group.estimators
        assert stack.indices == list(range(NUM_SHARDS))
        for row, estimator in enumerate(group.estimators):
            for stacked, param in zip(stack.estimator.model.parameters(), estimator.model.parameters()):
                assert np.shares_memory(param.data, stacked.data)
                assert np.array_equal(stacked.data[row].reshape(param.shape), param.data)

    def test_in_place_write_lands_in_the_stack(self, engine, records):
        group = engine.shard_group("hm")
        before = merged_curves(engine, "hm", records)
        stacked_model = group.merged._stack.estimator.model
        group.estimators[1].model.decoders.biases.data += 0.5
        after = merged_curves(engine, "hm", records)
        assert group.merged._stack.estimator.model is stacked_model  # no re-stack needed
        assert np.array_equal(after, fresh_sum(group, records))
        assert not np.array_equal(after, before)

    def test_load_state_dict_on_one_shard_is_restacked(self, engine, records):
        group = engine.shard_group("hm")
        before = merged_curves(engine, "hm", records)
        model = group.estimators[2].model
        state = model.state_dict()
        state["decoders.biases"] = state["decoders.biases"] + 0.5
        model.load_state_dict(state)
        after = merged_curves(engine, "hm", records)
        assert np.array_equal(after, fresh_sum(group, records))
        assert not np.array_equal(after, before)
        stacked_model = group.merged._stack.estimator.model
        for stacked, param in zip(stacked_model.parameters(), model.parameters()):
            assert np.shares_memory(param.data, stacked.data)

    def test_routed_retrain_moves_the_merged_curve(
        self, engine, records, binary_dataset, binary_workload
    ):
        binding = engine.catalog.get("hm")
        group = engine.shard_group("hm")
        managers = [
            IncrementalUpdateManager(
                estimator, shard,
                relabel(binary_workload.train[:24], shard),
                relabel(binary_workload.validation[:8], shard),
                error_tolerance=-np.inf, max_epochs_per_update=1,
            )
            for estimator, shard in zip(group.estimators, binding.selector.shards)
        ]
        engine.attach_shard_managers("hm", managers)
        before = merged_curves(engine, "hm", records)
        report = engine.apply_update(
            "hm", UpdateOperation("insert", list(binary_dataset.records[:4]))
        )
        assert any(shard_report.retrained for shard_report in report.reports.values())
        after = engine.service.estimate_curve_many("hm", records)
        assert np.array_equal(after, fresh_sum(group, records))
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("mmap", [False, True], ids=["load", "mmap"])
    def test_restored_engine_restacks_and_serves_the_same_curves(
        self, engine, records, tmp_path, mmap
    ):
        before = merged_curves(engine, "hm", records)
        save_engine(engine, tmp_path / "snap")
        restored = load_engine(tmp_path / "snap", mmap=mmap)
        group = restored.shard_group("hm")
        assert group.merged._stack is None
        after = merged_curves(restored, "hm", records)
        assert np.array_equal(after, before)
        assert np.array_equal(after, fresh_sum(group, records))
        assert group.merged._stack.members == group.estimators


class TestFallback:
    def test_mixed_group_stacks_only_its_cardnets(self, binary_dataset, records):
        cardnets = cardnet_factory(binary_dataset)

        def factory(shard_records, shard_index):
            if shard_index == 1:
                return ExactCountEstimator(shard_records, "hamming")
            return cardnets(shard_records, shard_index)

        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "hm", binary_dataset.records, "hamming", factory,
            num_shards=NUM_SHARDS, curve_thetas=np.arange(13.0),
        )
        group = engine.shard_group("hm")
        assert np.array_equal(merged_curves(engine, "hm", records), fresh_sum(group, records))
        stack = group.merged._stack
        assert stack.indices == [0, 2]

    def test_edit_shards_with_differing_extractors_fall_back(self, string_dataset):
        # Without an alphabet or a maximum length in `extra`, each shard's
        # extractor takes both from the shard's own rows.
        extra = {}
        engine = SimilarityQueryEngine()
        engine.register_sharded_attribute(
            "ed", string_dataset.records, "edit", cardnet_factory(string_dataset, extra=extra),
            num_shards=NUM_SHARDS, theta_max=string_dataset.theta_max,
        )
        group = engine.shard_group("ed")
        dimensions = {estimator.extractor.dimension for estimator in group.estimators}
        assert len(dimensions) > 1
        records = list(string_dataset.records[:9])
        assert np.array_equal(merged_curves(engine, "ed", records), fresh_sum(group, records))
        stack = group.merged._stack
        assert 0 < len(stack.members) < NUM_SHARDS
        assert stack.indices[0] == 0
