"""Unit tests for the baseline estimators (DB-*, TL-*, DL-*)."""

import numpy as np
import pytest

from repro.baselines import (
    COMPARISON_NAMES,
    ESTIMATOR_NAMES,
    DeepLatticeNetworkEstimator,
    DNNEstimator,
    ExactEstimator,
    GradientBoostedTreesEstimator,
    HistogramHammingEstimator,
    KernelDensityEstimator,
    LSHSamplingEuclideanEstimator,
    MeanEstimator,
    MixtureOfExpertsEstimator,
    MonotoneCalibrator,
    PerThresholdDNNEstimator,
    QGramInvertedIndexEstimator,
    QueryFeaturizer,
    RecursiveModelIndexEstimator,
    RegressionTree,
    SketchJaccardEstimator,
    UniformSamplingEstimator,
    build_estimator,
    build_estimators,
)
from repro.distances import get_distance
from repro.metrics import mean_q_error
from repro.selection import default_selector
from repro.store import load_component, save_component
from repro.nn import Tensor


class TestQueryFeaturizer:
    def test_raw_vectors_for_hamming(self, binary_dataset):
        featurizer = QueryFeaturizer.for_dataset(binary_dataset)
        assert featurizer.dimension == binary_dataset.records.shape[1]

    def test_extractor_for_sets(self, set_dataset):
        featurizer = QueryFeaturizer.for_dataset(set_dataset)
        vector = featurizer.record_vector(set_dataset.records[0])
        assert set(np.unique(vector)) <= {0.0, 1.0}

    def test_features_append_normalized_theta(self, binary_dataset):
        featurizer = QueryFeaturizer.for_dataset(binary_dataset)
        features = featurizer.features(binary_dataset.records[0], binary_dataset.theta_max)
        assert features.shape == (featurizer.input_dimension,)
        assert features[-1] == pytest.approx(1.0)

    def test_matrix_and_targets(self, binary_dataset, binary_workload):
        featurizer = QueryFeaturizer.for_dataset(binary_dataset)
        examples = binary_workload.train[:10]
        assert featurizer.matrix(examples).shape == (10, featurizer.input_dimension)
        assert featurizer.targets(examples).shape == (10,)


class TestSimpleEstimators:
    def test_mean_estimator_monotone_buckets(self, binary_workload, binary_dataset):
        estimator = MeanEstimator(theta_max=binary_dataset.theta_max).fit(binary_workload.train)
        record = binary_dataset.records[0]
        estimates = [estimator.estimate(record, float(t)) for t in range(int(binary_dataset.theta_max) + 1)]
        assert estimates == sorted(estimates)

    def test_mean_estimator_query_independent(self, binary_workload, binary_dataset):
        estimator = MeanEstimator(theta_max=binary_dataset.theta_max).fit(binary_workload.train)
        a = estimator.estimate(binary_dataset.records[0], 4.0)
        b = estimator.estimate(binary_dataset.records[9], 4.0)
        assert a == b

    def test_exact_estimator_matches_labels(self, binary_dataset, binary_workload):
        selector = default_selector("hamming", binary_dataset.records)
        estimator = ExactEstimator(selector)
        for example in binary_workload.test[:10]:
            assert estimator.estimate(example.record, example.theta) == example.cardinality


class TestSampling:
    def test_scales_with_sample_ratio(self, binary_dataset):
        estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", sample_ratio=0.2, seed=0)
        estimate = estimator.estimate(binary_dataset.records[0], binary_dataset.theta_max)
        assert estimate > 0.0

    def test_full_sample_is_exact(self, binary_dataset, binary_workload):
        estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", sample_ratio=1.0, seed=0)
        example = binary_workload.test[0]
        assert estimator.estimate(example.record, example.theta) == pytest.approx(example.cardinality)

    def test_monotone_in_threshold(self, binary_dataset):
        estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", sample_ratio=0.1, seed=0)
        record = binary_dataset.records[1]
        values = [estimator.estimate(record, float(t)) for t in range(0, 12)]
        assert values == sorted(values)

    def test_invalid_ratio(self, binary_dataset):
        with pytest.raises(ValueError):
            UniformSamplingEstimator(binary_dataset.records, "hamming", sample_ratio=0.0)

    def test_size_in_bytes_positive(self, binary_dataset):
        estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", sample_ratio=0.1)
        assert estimator.size_in_bytes() > 0


class TestDBSpecialized:
    def test_histogram_hamming_reasonable(self, binary_dataset, binary_workload):
        estimator = HistogramHammingEstimator(binary_dataset.records, group_size=8)
        example = max(binary_workload.test, key=lambda e: e.cardinality)
        estimate = estimator.estimate(example.record, example.theta)
        assert estimate >= 0.0
        # At the maximum possible threshold the histogram must return ~all records.
        full = estimator.estimate(example.record, binary_dataset.records.shape[1])
        assert full == pytest.approx(len(binary_dataset), rel=1e-6)

    def test_histogram_monotone(self, binary_dataset):
        estimator = HistogramHammingEstimator(binary_dataset.records, group_size=8)
        record = binary_dataset.records[2]
        values = [estimator.estimate(record, float(t)) for t in range(0, 13)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_histogram_empty_dataset(self):
        estimator = HistogramHammingEstimator(np.zeros((0, 16), dtype=np.uint8), group_size=8)
        assert estimator.estimate(np.zeros(16, dtype=np.uint8), 4.0) == 0.0

    def test_qgram_edit_estimator(self, string_dataset, string_workload):
        estimator = QGramInvertedIndexEstimator(string_dataset.records)
        example = string_workload.test[0]
        assert estimator.estimate(example.record, example.theta) >= 0.0

    def test_qgram_edit_monotone(self, string_dataset):
        estimator = QGramInvertedIndexEstimator(string_dataset.records)
        record = string_dataset.records[0]
        values = [estimator.estimate(record, float(t)) for t in range(0, 6)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_sketch_jaccard_estimator(self, set_dataset):
        universe = set_dataset.extra["universe_size"]
        estimator = SketchJaccardEstimator(set_dataset.records, universe_size=universe, seed=0)
        record = set_dataset.records[0]
        assert estimator.estimate(record, 0.0) >= 1.0  # record matches itself
        assert estimator.estimate(record, 1.0) == len(set_dataset)

    def test_lsh_euclidean_estimator(self, vector_dataset, vector_workload):
        estimator = LSHSamplingEuclideanEstimator(vector_dataset.records, seed=0)
        example = max(vector_workload.test, key=lambda e: e.cardinality)
        estimate = estimator.estimate(example.record, example.theta)
        assert estimate > 0.0

    def test_lsh_euclidean_monotone(self, vector_dataset):
        estimator = LSHSamplingEuclideanEstimator(vector_dataset.records, seed=0)
        record = vector_dataset.records[0]
        values = [estimator.estimate(record, t) for t in np.linspace(0.0, 1.5, 10)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


class TestKDE:
    def test_monotone_in_threshold(self, vector_dataset):
        estimator = KernelDensityEstimator(vector_dataset.records, "euclidean", sample_size=60, seed=0)
        record = vector_dataset.records[0]
        values = [estimator.estimate(record, t) for t in np.linspace(0.0, 1.5, 12)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_estimates_bounded_by_dataset_size(self, vector_dataset):
        estimator = KernelDensityEstimator(vector_dataset.records, "euclidean", sample_size=60, seed=0)
        estimate = estimator.estimate(vector_dataset.records[0], 100.0)
        assert estimate == pytest.approx(len(vector_dataset), rel=1e-6)

    def test_explicit_bandwidth(self, vector_dataset):
        estimator = KernelDensityEstimator(
            vector_dataset.records, "euclidean", sample_size=40, bandwidth=0.05, seed=0
        )
        assert estimator.estimate(vector_dataset.records[0], 0.3) >= 0.0


class TestRegressionTreeAndGBT:
    def test_tree_fits_simple_function(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(size=(200, 2))
        targets = (features[:, 0] > 0.5).astype(float) * 10.0
        tree = RegressionTree(max_depth=2, min_samples_leaf=5).fit(features, targets)
        predictions = tree.predict(features)
        assert np.mean((predictions - targets) ** 2) < 1.0

    def test_tree_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_gbt_improves_over_constant(self, binary_dataset, binary_workload, binary_featurizer):
        estimator = GradientBoostedTreesEstimator.xgb_preset(binary_featurizer, seed=0)
        estimator.fit(binary_workload.train, binary_workload.validation)
        actual = [e.cardinality for e in binary_workload.test]
        predictions = estimator.estimate_many(binary_workload.test)
        constant = np.full(len(actual), np.mean([e.cardinality for e in binary_workload.train]))
        assert mean_q_error(actual, predictions) < mean_q_error(actual, constant)

    def test_gbt_requires_training_data(self, binary_featurizer):
        estimator = GradientBoostedTreesEstimator.xgb_preset(binary_featurizer)
        with pytest.raises(ValueError):
            estimator.fit([])

    def test_lgbm_preset_differs(self, binary_featurizer):
        xgb = GradientBoostedTreesEstimator.xgb_preset(binary_featurizer)
        lgbm = GradientBoostedTreesEstimator.lgbm_preset(binary_featurizer)
        assert xgb.name == "TL-XGB" and lgbm.name == "TL-LGBM"
        assert lgbm.max_depth < xgb.max_depth

    def test_size_in_bytes_after_fit(self, binary_workload, binary_featurizer):
        estimator = GradientBoostedTreesEstimator.xgb_preset(binary_featurizer, seed=0)
        estimator.fit(binary_workload.train[:50])
        assert estimator.size_in_bytes() > 0


class TestDeepBaselines:
    @pytest.fixture(scope="class")
    def small_training(self, binary_workload):
        return binary_workload.train[:80], binary_workload.validation[:20]

    def test_dnn_trains_and_estimates(self, binary_featurizer, small_training, binary_workload):
        train, validation = small_training
        estimator = DNNEstimator(binary_featurizer, hidden_sizes=(32, 16), epochs=5, seed=0)
        estimator.fit(train, validation)
        predictions = estimator.estimate_many(binary_workload.test[:10])
        assert predictions.shape == (10,)
        assert np.all(predictions >= 0.0)

    def test_per_threshold_dnn(self, binary_featurizer, small_training, binary_workload):
        train, validation = small_training
        estimator = PerThresholdDNNEstimator(
            binary_featurizer, num_ranges=4, hidden_sizes=(16,), epochs=4, seed=0
        )
        estimator.fit(train, validation)
        example = binary_workload.test[0]
        assert estimator.estimate(example.record, example.theta) >= 0.0
        assert estimator.size_in_bytes() > 0

    def test_rmi_routes_to_experts(self, binary_featurizer, small_training, binary_workload):
        train, validation = small_training
        estimator = RecursiveModelIndexEstimator(
            binary_featurizer, num_experts=3, stage1_hidden=(16,), stage2_hidden=(16,), epochs=5, seed=0
        )
        estimator.fit(train, validation)
        assert any(expert is not None for expert in estimator.experts)
        example = binary_workload.test[0]
        assert estimator.estimate(example.record, example.theta) >= 0.0

    def test_moe_gate_weights_sum_to_one(self, binary_featurizer, small_training):
        train, validation = small_training
        estimator = MixtureOfExpertsEstimator(
            binary_featurizer, num_experts=3, expert_hidden=(16,), epochs=3, seed=0
        )
        estimator.fit(train, validation)
        features = binary_featurizer.matrix(train[:4])
        weights = estimator.model.gate_weights(Tensor(features)).data
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0.0)

    def test_dln_monotone_in_threshold(self, binary_featurizer, small_training, binary_dataset):
        train, validation = small_training
        estimator = DeepLatticeNetworkEstimator(
            binary_featurizer, num_units=8, hidden_sizes=(16,), epochs=4, seed=0
        )
        estimator.fit(train, validation)
        record = binary_dataset.records[0]
        values = [estimator.estimate(record, float(t)) for t in range(0, 13)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_monotone_calibrator_is_monotone(self):
        calibrator = MonotoneCalibrator(num_segments=6, num_outputs=3, seed=0)
        thresholds = np.linspace(0.0, 1.0, 11)[:, None]
        outputs = calibrator(Tensor(thresholds)).data
        assert np.all(np.diff(outputs, axis=0) >= -1e-12)


class TestFactory:
    def test_all_names_buildable_for_binary(self, binary_dataset):
        for name in ESTIMATOR_NAMES:
            estimator = build_estimator(name, binary_dataset, seed=0, epochs=1)
            assert estimator is not None

    def test_unknown_name_raises(self, binary_dataset):
        with pytest.raises(KeyError):
            build_estimator("DL-Transformer", binary_dataset)

    def test_build_estimators_subset(self, binary_dataset):
        estimators = build_estimators(["DB-US", "Mean"], binary_dataset)
        assert set(estimators) == {"DB-US", "Mean"}

    def test_comparison_names_exclude_oracles(self):
        assert "Exact" not in COMPARISON_NAMES
        assert "Mean" not in COMPARISON_NAMES

    @pytest.mark.parametrize(
        "fixture_name", ["string_dataset", "set_dataset", "vector_dataset"]
    )
    def test_db_se_specializes_per_distance(self, request, fixture_name):
        dataset = request.getfixturevalue(fixture_name)
        estimator = build_estimator("DB-SE", dataset, seed=0)
        assert estimator.estimate(dataset.records[0], dataset.theta_max) >= 0.0


#: The four tier-1 datasets, each with the workload its estimators train on.
TIER1_WORKLOADS = [
    ("binary_dataset", "binary_workload"),
    ("string_dataset", "string_workload"),
    ("set_dataset", "set_workload"),
    ("vector_dataset", "vector_workload"),
]


@pytest.mark.parametrize("dataset_fixture, workload_fixture", TIER1_WORKLOADS)
@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_declared_monotone_curves_satisfy_lemma2(request, name, dataset_fixture, workload_fixture):
    """Lemma 2, exactly: an estimator that declares ``monotonic`` returns
    curves that never decrease in θ, with no tolerance.  The grid is every
    integer in [0, θ_max] for integer-valued distances, else 9 even steps."""
    dataset = request.getfixturevalue(dataset_fixture)
    estimator = build_estimator(name, dataset, seed=0, epochs=3)
    if not estimator.monotonic:
        pytest.skip(f"{name} declares no monotonicity")
    workload = request.getfixturevalue(workload_fixture)
    estimator.fit(workload.train, workload.validation)
    if get_distance(dataset.distance_name).integer_valued:
        grid = np.arange(int(dataset.theta_max) + 1, dtype=np.float64)
    else:
        grid = np.linspace(0.0, dataset.theta_max, 9)
    curves = estimator.estimate_curve_many(list(dataset.records), grid)
    assert np.all(np.diff(curves, axis=1) >= 0)


@pytest.mark.parametrize("dataset_fixture, workload_fixture", TIER1_WORKLOADS)
@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_every_estimator_survives_a_snapshot(request, tmp_path, name, dataset_fixture, workload_fixture):
    """Every estimator of the suite holds plain state (arrays, dicts, repro
    objects; no function or bound method), so ``save_component`` takes it and
    the restored estimator answers bit for bit what the original did."""
    dataset = request.getfixturevalue(dataset_fixture)
    workload = request.getfixturevalue(workload_fixture)
    estimator = build_estimator(name, dataset, seed=0, epochs=1)
    estimator.fit(workload.train[:40], workload.validation[:10])
    save_component(estimator, tmp_path / name)
    restored = load_component(tmp_path / name)
    records = [example.record for example in workload.test[:10]]
    thetas = [example.theta for example in workload.test[:10]]
    np.testing.assert_array_equal(
        restored.estimate_batch(records, thetas), estimator.estimate_batch(records, thetas)
    )
