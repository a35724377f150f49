"""Every fused node against the same expression built from ``tensor.py`` primitives.

``src/`` keeps one implementation of each node; the primitive chains live here.
Value and every input gradient must agree to ``rtol=1e-12`` (most are the same
floating-point operations and agree exactly), and each node also passes the
finite-difference check.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import DistanceEmbedding, PerDistanceDecoders, SharedEncoder
from repro.nn import Tensor
from repro.nn.gradcheck import check_gradients

RTOL = 1e-12
ACTIVATIONS = [None, "relu", "elu", "sigmoid", "tanh", "softplus"]
#: One row, a ragged last batch, a full batch.
BATCHES = [1, 7, 64]
TAU_MAXES = [0, 6, 16]


def leaf(rng, *shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


def clones(*tensors):
    return [Tensor(t.data.copy(), requires_grad=t.requires_grad) for t in tensors]


def assert_same_value_and_gradients(fused, primitive, fused_inputs, primitive_inputs, seed=0):
    """Backpropagate one random upstream gradient through both graphs and compare."""
    np.testing.assert_allclose(fused.data, primitive.data, rtol=RTOL, atol=0.0)
    upstream = np.random.default_rng(seed).normal(size=fused.shape)
    fused.backward(upstream)
    primitive.backward(upstream)
    for mine, reference in zip(fused_inputs, primitive_inputs):
        assert mine.grad is not None and reference.grad is not None
        np.testing.assert_allclose(mine.grad, reference.grad, rtol=RTOL, atol=1e-300)


def apply(tensor, activation):
    return tensor if activation is None else getattr(tensor, activation)()


# --------------------------------------------------------------------------- #
# linear: affine (+ bias) (+ activation)
# --------------------------------------------------------------------------- #
class TestLinearNode:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_primitives(self, activation, use_bias, batch):
        rng = np.random.default_rng(batch)
        x, weight, bias = leaf(rng, batch, 5), leaf(rng, 5, 4), leaf(rng, 4)
        x2, weight2, bias2 = clones(x, weight, bias)
        fused = nn.linear(x, weight, bias if use_bias else None, activation)
        primitive = x2 @ weight2
        if use_bias:
            primitive = primitive + bias2
        primitive = apply(primitive, activation)
        inputs = (x, weight, bias) if use_bias else (x, weight)
        references = (x2, weight2, bias2) if use_bias else (x2, weight2)
        assert_same_value_and_gradients(fused, primitive, inputs, references)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_gradcheck(self, activation):
        rng = np.random.default_rng(3)
        x, weight, bias = leaf(rng, 3, 4), leaf(rng, 4, 2), leaf(rng, 2)
        assert check_gradients(
            lambda: (nn.linear(x, weight, bias, activation) ** 2).sum(), [x, weight, bias]
        )

    def test_elu_alpha_is_passed_through(self):
        rng = np.random.default_rng(4)
        x, weight = leaf(rng, 6, 3), leaf(rng, 3, 3)
        x2, weight2 = clones(x, weight)
        fused = nn.linear(x, weight, None, "elu", (0.3,))
        assert_same_value_and_gradients(fused, (x2 @ weight2).elu(0.3), (x, weight), (x2, weight2))

    def test_module_forms_build_one_node_per_layer(self):
        """``nn.Linear`` is one node; ``Sequential`` folds Linear + activation into one."""
        model = nn.mlp([4, 8, 8, 2], activation=nn.ELU, output_activation=nn.Tanh,
                       rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        out = model(x)
        chain = []
        node = out
        while node._backward is not None:
            chain.append(node)
            node = node._parents[0]
        assert len(chain) == 3 and node is x
        # ... and it is the same function as applying the modules one by one.
        stepwise = x
        for module in model:
            stepwise = module(stepwise)
        np.testing.assert_allclose(out.data, stepwise.data, rtol=RTOL)
        np.testing.assert_allclose(out.data, model.infer(x.data), rtol=RTOL)

    def test_frozen_input_gets_no_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)))
        weight, bias = leaf(rng, 4, 2), leaf(rng, 2)
        nn.linear(x, weight, bias, "relu").sum().backward()
        assert x.grad is None and weight.grad is not None and bias.grad is not None


# --------------------------------------------------------------------------- #
# linear_bank: the stacked per-distance decoders
# --------------------------------------------------------------------------- #
def decode_from_primitives(embeddings, weights, biases):
    """The decoder bank as τ+1 separate affine + ReLU heads, then a concatenation."""
    batch = embeddings.shape[0]
    columns = []
    for distance in range(weights.shape[0]):
        weight = weights[distance].reshape(-1, 1)
        estimate = (embeddings[:, distance, :] @ weight).reshape(batch) + biases[distance]
        columns.append(estimate.relu().reshape(-1, 1))
    return nn.concatenate(columns, axis=1)


class TestDecoderBank:
    @pytest.mark.parametrize("tau_max", TAU_MAXES)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_primitives(self, tau_max, batch):
        rng = np.random.default_rng(100 * tau_max + batch)
        decoders = PerDistanceDecoders(tau_max=tau_max, embedding_dimension=6, seed=1)
        decoders.biases.data = rng.normal(size=tau_max + 1) * 0.1
        embeddings = leaf(rng, batch, tau_max + 1, 6)
        embeddings2, weights2, biases2 = clones(embeddings, decoders.weights, decoders.biases)
        assert_same_value_and_gradients(
            decoders(embeddings),
            decode_from_primitives(embeddings2, weights2, biases2),
            (embeddings, decoders.weights, decoders.biases),
            (embeddings2, weights2, biases2),
        )

    def test_forward_is_infer_all(self):
        decoders = PerDistanceDecoders(tau_max=6, embedding_dimension=5, seed=2)
        embeddings = np.random.default_rng(0).normal(size=(4, 7, 5))
        assert np.array_equal(decoders(Tensor(embeddings)).data, decoders.infer_all(embeddings))

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        z, weights, biases = leaf(rng, 3, 4, 2), leaf(rng, 4, 2), leaf(rng, 4, scale=0.1)
        assert check_gradients(
            lambda: (nn.linear_bank(z, weights, biases, "relu") ** 2).sum(), [z, weights, biases]
        )


# --------------------------------------------------------------------------- #
# pair_rows and the stacked Φ
# --------------------------------------------------------------------------- #
def embed_from_primitives(encoder, representation, distance_embeddings):
    """Φ run τ+1 times, once per distance, on [x' ; e_i] tiled over the batch."""
    ones = Tensor(np.ones((representation.shape[0], 1)))
    outputs = []
    for index in range(distance_embeddings.shape[0]):
        tiled = ones @ distance_embeddings[index].reshape(1, -1)
        hidden = nn.concatenate([representation, tiled], axis=-1)
        for module in encoder.network:
            hidden = module(hidden)
        outputs.append(hidden)
    return nn.stack(outputs, axis=1)


class TestStackedEncoder:
    @pytest.mark.parametrize("tau_max", TAU_MAXES)
    @pytest.mark.parametrize("batch", [1, 7])
    def test_shared_encoder_matches_per_distance_loop(self, tau_max, batch):
        rng = np.random.default_rng(10 * tau_max + batch)
        encoder = SharedEncoder(
            representation_dimension=6, distance_embedding_dimension=3,
            embedding_dimension=4, hidden_sizes=(8,), seed=0,
        )
        table = DistanceEmbedding(tau_max=tau_max, embedding_dimension=3, seed=0).all_embeddings()
        representation = leaf(rng, batch, 6)
        fused = encoder(representation, table)
        assert fused.shape == (batch, tau_max + 1, 4)
        parameter_grads = [p.grad.copy() for p in _backward_and_collect(fused, encoder, seed=1)]
        fused_inputs = (representation.grad.copy(), table.grad.copy())

        representation.zero_grad()
        table.zero_grad()
        encoder.zero_grad()
        primitive = embed_from_primitives(encoder, representation, table)
        np.testing.assert_allclose(fused.data, primitive.data, rtol=RTOL, atol=0.0)
        reference_grads = [p.grad for p in _backward_and_collect(primitive, encoder, seed=1)]
        # A weight gradient sums over batch·(τ+1) stacked rows in one matmul here
        # and over τ+1 separate matmuls there: same terms, another order.
        for mine, reference in zip(parameter_grads, reference_grads):
            np.testing.assert_allclose(mine, reference, rtol=RTOL, atol=1e-13)
        np.testing.assert_allclose(fused_inputs[0], representation.grad, rtol=RTOL, atol=1e-13)
        np.testing.assert_allclose(fused_inputs[1], table.grad, rtol=RTOL, atol=1e-13)

    def test_forward_is_infer_embeddings(self):
        encoder = SharedEncoder(
            representation_dimension=5, distance_embedding_dimension=2,
            embedding_dimension=3, hidden_sizes=(6,), seed=0,
        )
        rng = np.random.default_rng(2)
        representation, table = rng.normal(size=(4, 5)), rng.normal(size=(7, 2))
        assert np.array_equal(
            encoder(Tensor(representation), Tensor(table)).data,
            encoder.infer_embeddings(representation, table),
        )

    @pytest.mark.parametrize("rows,others", [(1, 1), (3, 4), (7, 17)])
    def test_pair_rows_matches_primitives(self, rows, others):
        rng = np.random.default_rng(rows + others)
        left, right = leaf(rng, rows, 3), leaf(rng, others, 2)
        left2, right2 = clones(left, right)
        blocks = [
            nn.concatenate(
                [Tensor(np.ones((others, 1))) @ left2[i].reshape(1, -1), right2], axis=1
            )
            for i in range(rows)
        ]
        assert_same_value_and_gradients(
            nn.pair_rows(left, right), nn.concatenate(blocks, axis=0), (left, right), (left2, right2)
        )

    def test_pair_rows_gradcheck(self):
        rng = np.random.default_rng(8)
        left, right = leaf(rng, 2, 3), leaf(rng, 3, 2)
        weights = rng.normal(size=(6, 5))
        assert check_gradients(
            lambda: (nn.pair_rows(left, right) * Tensor(weights)).sum(), [left, right]
        )


def _backward_and_collect(output, module, seed):
    output.backward(np.random.default_rng(seed).normal(size=output.shape))
    return module.parameters()


# --------------------------------------------------------------------------- #
# gaussian_sample: the reparameterization
# --------------------------------------------------------------------------- #
class TestGaussianSample:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_primitives(self, batch):
        rng = np.random.default_rng(batch)
        mean, log_var = leaf(rng, batch, 4), leaf(rng, batch, 4)
        mean2, log_var2 = clones(mean, log_var)
        noise = rng.normal(size=(batch, 4))
        assert_same_value_and_gradients(
            nn.gaussian_sample(mean, log_var, noise),
            mean2 + (log_var2 * 0.5).exp() * Tensor(noise),
            (mean, log_var),
            (mean2, log_var2),
        )

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        mean, log_var = leaf(rng, 3, 2), leaf(rng, 3, 2)
        noise = rng.normal(size=(3, 2))
        assert check_gradients(
            lambda: (nn.gaussian_sample(mean, log_var, noise) ** 2).sum(), [mean, log_var]
        )


# --------------------------------------------------------------------------- #
# The four losses
# --------------------------------------------------------------------------- #
def msle_from_primitives(prediction, target, weights=None):
    log_pred = prediction.clip(min_value=0.0).log1p()
    log_target = target.clip(min_value=0.0).log1p()
    squared = (log_pred - log_target) ** 2
    if weights is None:
        return squared.mean()
    return (squared * Tensor(np.asarray(weights, dtype=np.float64))).sum() / float(
        max(np.sum(weights), 1e-12)
    )


def bce_from_primitives(logits, target):
    """max(z, 0) − z·y + log(1 + exp(−|z|)), with |z| = max(z, 0) + max(−z, 0)."""
    positive_part = logits.relu()
    magnitude = positive_part + (-logits).relu()
    return (positive_part - logits * target + (-magnitude).exp().log1p()).mean()


def kl_from_primitives(mean, log_var):
    return ((mean * mean + log_var.exp() - log_var - 1.0) * 0.5).sum(axis=-1).mean()


def scalar_pair(fused, primitive, fused_inputs, primitive_inputs, atol=1e-300):
    np.testing.assert_allclose(fused.data, primitive.data, rtol=RTOL, atol=0.0)
    assert fused.shape == primitive.shape == ()
    fused.backward()
    primitive.backward()
    for mine, reference in zip(fused_inputs, primitive_inputs):
        np.testing.assert_allclose(mine.grad, reference.grad, rtol=RTOL, atol=atol)


class TestFusedLosses:
    @pytest.mark.parametrize("rows", BATCHES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_weighted_msle(self, rows, weighted):
        rng = np.random.default_rng(rows)
        # Negative and exactly-zero entries exercise the clip on both sides.
        prediction = Tensor(rng.normal(size=rows) * 5.0 + 2.0, requires_grad=True)
        target = Tensor(np.abs(rng.normal(size=rows)) * 5.0, requires_grad=True)
        prediction.data[0] = 0.0
        weights = rng.uniform(0.0, 1.0, size=rows) if weighted else None
        if weighted and rows > 1:
            weights[-1] = 0.0
        prediction2, target2 = clones(prediction, target)
        scalar_pair(
            nn.weighted_msle(prediction, target, weights),
            msle_from_primitives(prediction2, target2, weights),
            (prediction, target),
            (prediction2, target2),
        )

    def test_msle_loss_is_the_unweighted_node(self):
        rng = np.random.default_rng(0)
        prediction, target = leaf(rng, 6), Tensor(np.abs(rng.normal(size=6)))
        (prediction2,) = clones(prediction)
        scalar_pair(
            nn.msle_loss(prediction, target),
            msle_from_primitives(prediction2, target),
            (prediction,),
            (prediction2,),
        )

    def test_weighted_msle_all_zero_weights(self):
        prediction = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = nn.weighted_msle(prediction, Tensor(np.array([3.0, 4.0])), np.zeros(2))
        loss.backward()
        assert loss.item() == 0.0 and np.array_equal(prediction.grad, [0.0, 0.0])

    @pytest.mark.parametrize("rows", BATCHES)
    def test_bce_with_logits(self, rows):
        rng = np.random.default_rng(rows)
        logits = Tensor(rng.normal(size=(rows, 5)) * 4.0, requires_grad=True)
        target = Tensor(rng.integers(0, 2, size=(rows, 5)).astype(float), requires_grad=True)
        logits2, target2 = clones(logits, target)
        scalar_pair(
            nn.bce_with_logits_loss(logits, target),
            bce_from_primitives(logits2, target2),
            (logits, target),
            (logits2, target2),
            # σ(z) − y cancels where the prediction is right: the primitive chain
            # sums three terms of size 1/N there, the closed form subtracts once.
            atol=1e-15 / rows,
        )

    def test_bce_extreme_logits_stay_finite(self):
        logits = Tensor(np.array([[-800.0, 800.0, 0.0]]), requires_grad=True)
        loss = nn.bce_with_logits_loss(logits, Tensor(np.array([[0.0, 1.0, 1.0]])))
        with np.errstate(all="raise"):
            loss.backward()
        assert np.isfinite(loss.item()) and np.all(np.isfinite(logits.grad))

    @pytest.mark.parametrize("rows", BATCHES)
    def test_gaussian_kl(self, rows):
        rng = np.random.default_rng(rows)
        mean, log_var = leaf(rng, rows, 4), leaf(rng, rows, 4)
        mean2, log_var2 = clones(mean, log_var)
        scalar_pair(
            nn.gaussian_kl_loss(mean, log_var),
            kl_from_primitives(mean2, log_var2),
            (mean, log_var),
            (mean2, log_var2),
        )

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        prediction = Tensor(np.abs(rng.normal(size=5)) + 0.5, requires_grad=True)
        target = Tensor(np.abs(rng.normal(size=5)) + 0.5, requires_grad=True)
        weights = rng.uniform(0.1, 1.0, size=5)
        assert check_gradients(
            lambda: nn.weighted_msle(prediction, target, weights), [prediction, target]
        )
        assert check_gradients(lambda: nn.msle_loss(prediction, target), [prediction, target])
        logits, labels = leaf(rng, 3, 4), Tensor(rng.uniform(size=(3, 4)), requires_grad=True)
        assert check_gradients(lambda: nn.bce_with_logits_loss(logits, labels), [logits, labels])
        mean, log_var = leaf(rng, 3, 2), leaf(rng, 3, 2)
        assert check_gradients(lambda: nn.gaussian_kl_loss(mean, log_var), [mean, log_var])


# --------------------------------------------------------------------------- #
# Where the fused node is the same floating-point operations, training is too
# --------------------------------------------------------------------------- #
def test_seeded_training_is_bit_identical_to_the_primitive_network():
    """An ELU MLP trained through ``Sequential`` (fused ``linear`` nodes) and the
    same MLP written out as ``x @ W + b`` → ``.elu()`` primitives end on the same
    bits: same clipping, same Adam steps, same weights."""
    rng = np.random.default_rng(0)
    features, targets = rng.normal(size=(40, 6)), rng.normal(size=(40, 1))

    def train(forward, parameters):
        optimizer = nn.Adam(parameters, lr=1e-2)
        order_rng = np.random.default_rng(1)
        for _ in range(5):
            order = order_rng.permutation(40)
            for start in range(0, 40, 16):  # 16, 16, and a ragged batch of 8
                batch = order[start : start + 16]
                optimizer.zero_grad()
                loss = nn.mse_loss(forward(Tensor(features[batch])), Tensor(targets[batch]))
                loss.backward()
                optimizer.clip_grad_norm(0.5)
                optimizer.step()

    fused = nn.mlp([6, 8, 8, 1], activation=nn.ELU, rng=np.random.default_rng(2))
    written_out = nn.mlp([6, 8, 8, 1], activation=nn.ELU, rng=np.random.default_rng(2))
    layers = [module for module in written_out if isinstance(module, nn.Linear)]

    def primitive_forward(x):
        for index, layer in enumerate(layers):
            x = x @ layer.weight + layer.bias
            if index < len(layers) - 1:
                x = x.elu()
        return x

    train(fused, fused.parameters())
    train(primitive_forward, written_out.parameters())
    for (name, mine), (_, reference) in zip(
        fused.named_parameters(), written_out.named_parameters()
    ):
        assert np.array_equal(mine.data, reference.data), name
