"""Tests for the CardNet model, its trainer, the estimator API, and incremental learning."""

import numpy as np
import pytest

from repro.core import (
    CardNet,
    CardNetConfig,
    CardNetEstimator,
    CardNetTrainer,
    featurize_examples,
)
from repro.core.training import _cumulative_mask, _segment_mask
from repro.datasets import generate_update_stream
from repro.core.incremental import IncrementalUpdateManager
from repro.featurization import build_feature_extractor
from repro.metrics import mean_q_error, monotonicity_violation_rate
from repro.selection import default_selector
from repro.workloads import QueryExample


def tiny_config(tau_max: int = 5, accelerated: bool = False) -> CardNetConfig:
    return CardNetConfig(
        tau_max=tau_max,
        vae_latent_dimension=4,
        vae_hidden_sizes=(8,),
        distance_embedding_dimension=3,
        embedding_dimension=6,
        encoder_hidden_sizes=(12,),
        accelerated=accelerated,
        seed=0,
    )


class TestCardNetModel:
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_estimate_shapes(self, accelerated):
        model = CardNet(input_dimension=12, config=tiny_config(accelerated=accelerated))
        features = np.random.default_rng(0).integers(0, 2, size=(4, 12)).astype(float)
        estimates = model.estimate(features, np.array([0, 1, 3, 5]))
        assert estimates.shape == (4,)
        assert np.all(estimates >= 0.0)

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_estimate_curve_monotone(self, accelerated):
        model = CardNet(input_dimension=12, config=tiny_config(accelerated=accelerated))
        features = np.random.default_rng(1).integers(0, 2, size=(6, 12)).astype(float)
        curves = model.estimate_curve(features)
        assert curves.shape == (6, 6)
        assert np.all(np.diff(curves, axis=1) >= -1e-12)

    def test_inference_is_deterministic(self):
        model = CardNet(input_dimension=12, config=tiny_config())
        features = np.random.default_rng(2).integers(0, 2, size=(3, 12)).astype(float)
        a = model.estimate(features, np.array([2, 2, 2]))
        b = model.estimate(features, np.array([2, 2, 2]))
        assert np.array_equal(a, b)

    def test_training_forward_is_stochastic(self):
        model = CardNet(input_dimension=12, config=tiny_config())
        model.train()
        features = np.random.default_rng(3).integers(0, 2, size=(3, 12)).astype(float)
        from repro.nn import Tensor

        a = model.forward(Tensor(features), np.array([2, 2, 2]), deterministic=False).data
        b = model.forward(Tensor(features), np.array([2, 2, 2]), deterministic=False).data
        assert not np.array_equal(a, b)

    def test_estimate_increasing_in_tau(self):
        model = CardNet(input_dimension=12, config=tiny_config())
        features = np.random.default_rng(4).integers(0, 2, size=(1, 12)).astype(float)
        values = [model.estimate(features, np.array([tau]))[0] for tau in range(6)]
        assert values == sorted(values)

    def test_accelerated_flag_exposed(self):
        model = CardNet(input_dimension=8, config=tiny_config(accelerated=True))
        assert model.accelerated
        assert model.tau_max == 5

    def test_vae_loss_positive(self):
        from repro.nn import Tensor

        model = CardNet(input_dimension=12, config=tiny_config())
        features = Tensor(np.random.default_rng(5).integers(0, 2, size=(4, 12)).astype(float))
        assert model.vae_loss(features).item() > 0.0


class TestFeaturization:
    def test_featurize_examples_groups_queries(self, binary_dataset, binary_workload):
        extractor = build_feature_extractor(binary_dataset)
        split = featurize_examples(binary_workload.train, extractor)
        unique_records = {example.record.tobytes() for example in binary_workload.train}
        assert split.features.shape[0] == len(unique_records)
        assert len(split) > 0
        for column in (split.query_index, split.tau, split.cumulative,
                       split.segment_low, split.segment_target):
            assert column.shape == (len(split),)

    def test_segment_targets_sum_to_cumulative(self, binary_dataset, binary_workload):
        extractor = build_feature_extractor(binary_dataset)
        split = featurize_examples(binary_workload.train, extractor)
        for query in np.unique(split.query_index):
            rows = np.flatnonzero(split.query_index == query)
            last = rows[np.argmax(split.tau[rows])]
            assert split.segment_target[rows].sum() == pytest.approx(split.cumulative[last])

    def test_segment_mask_covers_half_open_interval(self):
        mask = _segment_mask(np.array([1]), np.array([4]), tau_max=6)
        assert np.array_equal(mask[0], [0, 0, 1, 1, 1, 0, 0])

    def test_cumulative_mask_covers_prefix(self):
        mask = _cumulative_mask(np.array([2]), tau_max=4)
        assert np.array_equal(mask[0], [1, 1, 1, 0, 0])

    def test_empty_examples(self, binary_dataset):
        extractor = build_feature_extractor(binary_dataset)
        split = featurize_examples([], extractor)
        assert split.features.shape[0] == 0
        assert len(split) == 0


class TestTraining:
    def test_training_reduces_validation_loss(self, binary_dataset, binary_workload):
        extractor = build_feature_extractor(binary_dataset)
        model = CardNet(input_dimension=extractor.dimension, config=tiny_config(tau_max=extractor.tau_max))
        trainer = CardNetTrainer(model, extractor, batch_size=32, vae_pretrain_epochs=2, seed=0)
        result = trainer.fit(binary_workload.train, binary_workload.validation, epochs=8)
        assert result.epochs_run == 8
        assert result.validation_losses[-1] < result.validation_losses[0]
        assert result.training_seconds > 0.0

    def test_patience_stops_early(self, binary_dataset, binary_workload):
        # With a zero learning rate the validation loss never improves after the
        # first epoch, so training must stop after exactly (patience + 1) epochs.
        extractor = build_feature_extractor(binary_dataset)
        model = CardNet(input_dimension=extractor.dimension, config=tiny_config(tau_max=extractor.tau_max))
        trainer = CardNetTrainer(
            model, extractor, learning_rate=0.0, batch_size=32, vae_pretrain_epochs=0, seed=0
        )
        result = trainer.fit(
            binary_workload.train, binary_workload.validation, epochs=50, patience=2,
            pretrain_vae=False,
        )
        assert result.epochs_run == 3


class TestEstimatorAPI:
    def test_estimates_are_monotone_in_theta(self, trained_cardnet, binary_dataset):
        record = binary_dataset.records[3]
        thresholds = np.arange(0, int(binary_dataset.theta_max) + 1)
        estimates = [[trained_cardnet.estimate(record, float(t))] for t in thresholds]
        assert monotonicity_violation_rate(estimates) == 0.0

    def test_accelerated_estimates_are_monotone(self, trained_cardnet_accelerated, binary_dataset):
        record = binary_dataset.records[7]
        thresholds = np.arange(0, int(binary_dataset.theta_max) + 1)
        estimates = [[trained_cardnet_accelerated.estimate(record, float(t))] for t in thresholds]
        assert monotonicity_violation_rate(estimates) == 0.0

    def test_accuracy_beats_trivial_zero_estimator(self, trained_cardnet, binary_workload):
        actual = [example.cardinality for example in binary_workload.test]
        estimates = trained_cardnet.estimate_many(binary_workload.test)
        zero_q_error = mean_q_error(actual, np.zeros(len(actual)))
        model_q_error = mean_q_error(actual, estimates)
        assert model_q_error < zero_q_error

    def test_estimate_many_matches_single(self, trained_cardnet, binary_workload):
        examples = binary_workload.test[:5]
        batch = trained_cardnet.estimate_many(examples)
        singles = [trained_cardnet.estimate(e.record, e.theta) for e in examples]
        assert np.allclose(batch, singles, atol=1e-9)

    def test_estimate_curve_length(self, trained_cardnet, binary_dataset):
        curve = trained_cardnet.estimate_curve(binary_dataset.records[0])
        assert len(curve) == trained_cardnet.extractor.tau_max + 1

    def test_size_in_bytes_positive(self, trained_cardnet):
        assert trained_cardnet.size_in_bytes() > 0

    def test_validation_msle_nonnegative(self, trained_cardnet, binary_workload):
        assert trained_cardnet.validation_msle(binary_workload.validation) >= 0.0

    def test_for_dataset_rejects_nothing_sets_name(self, binary_dataset):
        estimator = CardNetEstimator.for_dataset(binary_dataset, accelerated=True, epochs=1)
        assert estimator.name == "CardNet-A"
        assert estimator.monotonic


class TestIncrementalLearning:
    def test_incremental_fit_runs_and_stops(self, binary_dataset, binary_workload):
        estimator = CardNetEstimator.for_dataset(
            binary_dataset, epochs=2, vae_pretrain_epochs=1, seed=3
        )
        estimator.fit(binary_workload.train, binary_workload.validation)
        result = estimator.incremental_fit(
            binary_workload.train, binary_workload.validation, max_epochs=6
        )
        assert 1 <= result.epochs_run <= 6

    def test_update_manager_processes_stream(self, binary_dataset, binary_workload):
        estimator = CardNetEstimator.for_dataset(
            binary_dataset, epochs=2, vae_pretrain_epochs=1, seed=4
        )
        estimator.fit(binary_workload.train, binary_workload.validation)
        selector = default_selector("hamming", binary_dataset.records)
        manager = IncrementalUpdateManager(
            estimator,
            selector,
            binary_workload.train[:40],
            binary_workload.validation[:20],
            max_epochs_per_update=2,
        )
        operations = generate_update_stream(
            binary_dataset, num_operations=3, records_per_operation=10, seed=0
        )
        reports = [manager.process(operation, index) for index, operation in enumerate(operations)]
        assert len(reports) == 3
        assert all(report.dataset_size > 0 for report in reports)
        assert reports[-1].dataset_size == len(manager.records)


class TestQueryExampleIntegration:
    def test_handles_non_array_records(self, set_dataset, set_workload):
        """CardNet must work on set records (hashing via frozenset keys)."""
        estimator = CardNetEstimator.for_dataset(set_dataset, epochs=2, vae_pretrain_epochs=1, seed=0)
        estimator.fit(set_workload.train[:60], set_workload.validation[:20])
        example = set_workload.test[0]
        assert estimator.estimate(example.record, example.theta) >= 0.0

    def test_handles_string_records(self, string_dataset, string_workload):
        estimator = CardNetEstimator.for_dataset(string_dataset, epochs=2, vae_pretrain_epochs=1, seed=0)
        estimator.fit(string_workload.train[:60], string_workload.validation[:20])
        example = string_workload.test[0]
        assert estimator.estimate(example.record, example.theta) >= 0.0

    def test_rejects_unknown_threshold(self, trained_cardnet, binary_dataset):
        with pytest.raises(ValueError):
            trained_cardnet.estimate(binary_dataset.records[0], binary_dataset.theta_max + 100)
