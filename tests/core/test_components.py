"""Unit tests for CardNet's building blocks: VAE, encoders, decoders, loss."""

import numpy as np
import pytest

from repro.core import (
    AcceleratedEncoder,
    DistanceEmbedding,
    DynamicLossWeights,
    PerDistanceDecoders,
    SharedEncoder,
    VariationalAutoEncoder,
    empirical_tau_distribution,
    pretrain_vae,
    weighted_msle,
)
from repro.nn import Tensor


class TestVAE:
    @pytest.fixture(scope="class")
    def vae(self):
        return VariationalAutoEncoder(input_dimension=20, latent_dimension=6, hidden_sizes=(16,), seed=0)

    def test_encode_shapes(self, vae):
        x = Tensor(np.random.default_rng(0).integers(0, 2, size=(4, 20)).astype(float))
        mean, log_var = vae.encode(x)
        assert mean.shape == (4, 6)
        assert log_var.shape == (4, 6)

    def test_decode_shape(self, vae):
        logits = vae.decode(Tensor(np.zeros((3, 6))))
        assert logits.shape == (3, 20)

    def test_representation_concatenates(self, vae):
        x = Tensor(np.zeros((2, 20)))
        representation = vae.representation(x, deterministic=True)
        assert representation.shape == (2, 26)
        assert vae.representation_dimension == 26

    def test_deterministic_latent_is_reproducible(self, vae):
        x = Tensor(np.ones((2, 20)))
        a = vae.latent(x, deterministic=True).data
        b = vae.latent(x, deterministic=True).data
        assert np.array_equal(a, b)

    def test_stochastic_latent_varies(self, vae):
        x = Tensor(np.ones((2, 20)))
        a = vae.latent(x, deterministic=False).data
        b = vae.latent(x, deterministic=False).data
        assert not np.array_equal(a, b)

    def test_loss_positive(self, vae):
        x = Tensor(np.random.default_rng(1).integers(0, 2, size=(8, 20)).astype(float))
        assert vae.loss(x).item() > 0.0

    def test_pretraining_decreases_loss(self):
        rng = np.random.default_rng(2)
        features = rng.integers(0, 2, size=(80, 20)).astype(float)
        vae = VariationalAutoEncoder(input_dimension=20, latent_dimension=6, hidden_sizes=(16,), seed=1)
        history = pretrain_vae(vae, features, epochs=8, batch_size=16, seed=1)
        assert history[-1] < history[0]

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            VariationalAutoEncoder(input_dimension=0, latent_dimension=4)


class TestDistanceEmbedding:
    def test_shapes(self):
        embedding = DistanceEmbedding(tau_max=6, embedding_dimension=5, seed=0)
        assert embedding.all_embeddings().shape == (7, 5)
        assert embedding(np.array([0, 3])).shape == (2, 5)

    def test_negative_tau_max_rejected(self):
        with pytest.raises(ValueError):
            DistanceEmbedding(tau_max=-1)


class TestSharedEncoder:
    def test_forward_shape(self):
        encoder = SharedEncoder(
            representation_dimension=10, distance_embedding_dimension=4,
            embedding_dimension=8, hidden_sizes=(16,), seed=0,
        )
        embeddings = DistanceEmbedding(tau_max=3, embedding_dimension=4, seed=0)
        representation = Tensor(np.random.default_rng(0).normal(size=(5, 10)))
        z_matrix = encoder(representation, embeddings.all_embeddings())
        assert z_matrix.shape == (5, 4, 8)

    def test_different_distances_different_embeddings(self):
        encoder = SharedEncoder(
            representation_dimension=6, distance_embedding_dimension=4,
            embedding_dimension=8, hidden_sizes=(16,), seed=0,
        )
        embeddings = DistanceEmbedding(tau_max=2, embedding_dimension=4, seed=0)
        representation = Tensor(np.ones((1, 6)))
        z_matrix = encoder(representation, embeddings.all_embeddings()).data
        assert not np.allclose(z_matrix[:, 0], z_matrix[:, 1])


class TestAcceleratedEncoder:
    def test_output_shape(self):
        encoder = AcceleratedEncoder(
            representation_dimension=10, tau_max=5, embedding_dimension=9,
            hidden_sizes=(16, 8), seed=0,
        )
        z = encoder(Tensor(np.random.default_rng(0).normal(size=(3, 10))))
        assert z.shape == (3, 6, 9)

    def test_region_widths_partition_embedding(self):
        encoder = AcceleratedEncoder(
            representation_dimension=10, tau_max=5, embedding_dimension=9,
            hidden_sizes=(16, 8), seed=0,
        )
        assert sum(encoder.region_widths) == 9

    def test_requires_hidden_layers(self):
        with pytest.raises(ValueError):
            AcceleratedEncoder(representation_dimension=4, tau_max=2, hidden_sizes=())


def random_embeddings(batch: int, num_distances: int, dimension: int) -> Tensor:
    """Z of shape (batch, num_distances, dimension); slice i is seeded by i."""
    return Tensor(
        np.stack(
            [np.random.default_rng(i).normal(size=(batch, dimension)) for i in range(num_distances)],
            axis=1,
        )
    )


class TestDecoders:
    def test_nonnegative_outputs(self):
        decoders = PerDistanceDecoders(tau_max=4, embedding_dimension=6, seed=0)
        per_distance = decoders(random_embeddings(7, 5, 6))
        assert per_distance.shape == (7, 5)
        assert np.all(per_distance.data >= 0.0)

    def test_cumulative_monotone_in_tau(self):
        decoders = PerDistanceDecoders(tau_max=4, embedding_dimension=6, seed=0)
        per_distance = decoders(random_embeddings(3, 5, 6))
        previous = np.zeros(3)
        for tau in range(5):
            current = PerDistanceDecoders.cumulative(per_distance, np.full(3, tau)).data
            assert np.all(current >= previous - 1e-12)
            previous = current

    def test_cumulative_equals_manual_sum(self):
        decoders = PerDistanceDecoders(tau_max=3, embedding_dimension=4, seed=1)
        per_distance = decoders(random_embeddings(2, 4, 4))
        taus = np.array([1, 3])
        cumulative = PerDistanceDecoders.cumulative(per_distance, taus).data
        manual = [per_distance.data[0, :2].sum(), per_distance.data[1, :4].sum()]
        assert np.allclose(cumulative, manual)

    def test_wrong_embedding_count(self):
        decoders = PerDistanceDecoders(tau_max=2, embedding_dimension=4, seed=0)
        with pytest.raises(ValueError):
            decoders(Tensor(np.zeros((1, 1, 4))))


class TestLossComponents:
    def test_weighted_msle_unweighted_matches_plain(self):
        prediction = Tensor(np.array([1.0, 5.0, 10.0]))
        target = Tensor(np.array([2.0, 5.0, 8.0]))
        unweighted = weighted_msle(prediction, target).item()
        uniform = weighted_msle(prediction, target, np.ones(3)).item()
        assert unweighted == pytest.approx(uniform)

    def test_weighted_msle_weights_emphasize_rows(self):
        prediction = Tensor(np.array([1.0, 100.0]))
        target = Tensor(np.array([1.0, 1.0]))
        emphasize_bad = weighted_msle(prediction, target, np.array([0.0, 1.0])).item()
        emphasize_good = weighted_msle(prediction, target, np.array([1.0, 0.0])).item()
        assert emphasize_bad > emphasize_good

    def test_dynamic_weights_initial_uniform(self):
        weights = DynamicLossWeights(tau_max=3)
        assert np.allclose(weights.weights, 0.25)

    def test_dynamic_weights_follow_loss_increases(self):
        weights = DynamicLossWeights(tau_max=3)
        weights.update([1.0, 1.0, 1.0, 1.0])
        updated = weights.update([2.0, 1.0, 0.5, 3.0])
        # Distances 0 and 3 got worse; only they receive weight.
        assert updated[1] == 0.0 and updated[2] == 0.0
        assert updated[0] > 0.0 and updated[3] > 0.0
        assert np.isclose(updated.sum(), 1.0)

    def test_dynamic_weights_all_improved(self):
        weights = DynamicLossWeights(tau_max=2)
        weights.update([2.0, 2.0, 2.0])
        updated = weights.update([1.0, 1.0, 1.0])
        assert np.allclose(updated, 0.0)

    def test_dynamic_weights_wrong_shape(self):
        weights = DynamicLossWeights(tau_max=2)
        with pytest.raises(ValueError):
            weights.update([1.0, 2.0])

    def test_empirical_tau_distribution(self):
        distribution = empirical_tau_distribution([0, 0, 1, 3], tau_max=3)
        assert np.isclose(distribution.sum(), 1.0)
        assert distribution[0] == pytest.approx(0.5)
        assert distribution[2] == 0.0

    def test_empirical_tau_distribution_empty(self):
        distribution = empirical_tau_distribution([], tau_max=3)
        assert np.allclose(distribution, 0.25)
