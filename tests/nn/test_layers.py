"""Unit tests for layers, Module composition, optimizers, losses, serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.gradcheck import check_gradients


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, rng=np.random.default_rng(0))
        assert len(layer.parameters()) == 1

    def test_invalid_init_raises(self):
        with pytest.raises(ValueError):
            nn.Linear(4, 3, weight_init="bogus")

    def test_gradients_flow_to_weights(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert check_gradients(lambda: (layer(Tensor(x)) ** 2).sum(), layer.parameters())


class TestActivationsAndSequential:
    def test_sequential_applies_in_order(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)), nn.ReLU())
        out = model(Tensor(np.array([[1.0, -1.0]])))
        assert np.all(out.data >= 0.0)

    def test_sequential_len_and_iter(self):
        model = nn.Sequential(nn.ReLU(), nn.Tanh(), nn.Sigmoid())
        assert len(model) == 3
        assert len(list(model)) == 3

    def test_identity(self):
        x = Tensor([[1.0, 2.0]])
        assert np.allclose(nn.Identity()(x).data, x.data)

    def test_mlp_structure(self):
        model = nn.mlp([4, 8, 8, 1], rng=np.random.default_rng(0))
        out = model(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 1)

    def test_mlp_output_activation(self):
        model = nn.mlp([2, 4, 1], output_activation=nn.Sigmoid, rng=np.random.default_rng(0))
        out = model(Tensor(np.array([[5.0, -5.0]])))
        assert 0.0 < out.data[0, 0] < 1.0

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            nn.mlp([4])


class TestEmbedding:
    def test_lookup_shape(self):
        embedding = nn.Embedding(10, 4, rng=np.random.default_rng(0))
        out = embedding(np.array([0, 3, 9]))
        assert out.shape == (3, 4)

    def test_lookup_gradients(self):
        embedding = nn.Embedding(5, 3, rng=np.random.default_rng(0))
        out = embedding(np.array([1, 1, 2]))
        out.sum().backward()
        grad = embedding.weight.grad
        assert np.allclose(grad[1], [2.0, 2.0, 2.0])
        assert np.allclose(grad[2], [1.0, 1.0, 1.0])
        assert np.allclose(grad[0], 0.0)


class TestModule:
    def test_named_parameters_nested(self):
        model = nn.Sequential(nn.Linear(2, 3, rng=np.random.default_rng(0)), nn.Linear(3, 1, rng=np.random.default_rng(0)))
        names = [name for name, _ in model.named_parameters()]
        assert any("layer0" in name for name in names)
        assert any("layer1" in name for name in names)

    def test_num_parameters(self):
        model = nn.Linear(4, 3)
        assert model.num_parameters() == 4 * 3 + 3

    def test_state_dict_roundtrip(self):
        model = nn.mlp([3, 4, 1], rng=np.random.default_rng(0))
        other = nn.mlp([3, 4, 1], rng=np.random.default_rng(99))
        other.load_state_dict(model.state_dict())
        x = np.ones((2, 3))
        assert np.allclose(model(Tensor(x)).data, other(Tensor(x)).data)

    def test_load_state_dict_rejects_missing_keys(self):
        model = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_rejects_bad_shape(self):
        model = nn.Linear(2, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        model.eval()
        assert not model.training
        assert all(not module.training for module in model)

    def test_zero_grad(self):
        model = nn.Linear(2, 1, rng=np.random.default_rng(0))
        (model(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None


class TestLosses:
    def test_mse_zero_when_equal(self):
        x = Tensor([1.0, 2.0])
        assert nn.mse_loss(x, Tensor([1.0, 2.0])).item() == pytest.approx(0.0)

    def test_msle_scale_insensitivity(self):
        # MSLE depends on the ratio, not the absolute scale: (10 vs 20) and
        # (1000 vs 2000) should give nearly the same loss (log1p ≈ log there).
        small = nn.msle_loss(Tensor([10.0]), Tensor([20.0])).item()
        large = nn.msle_loss(Tensor([1000.0]), Tensor([2000.0])).item()
        assert abs(small - large) < 0.1

    def test_mae_loss(self):
        value = nn.mae_loss(Tensor([1.0, 3.0]), Tensor([2.0, 1.0])).item()
        assert value == pytest.approx(1.5, rel=1e-3)

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([[0.5, -1.0], [2.0, 0.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = np.mean(
            np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
        )
        value = nn.bce_with_logits_loss(Tensor(logits), Tensor(targets)).item()
        assert value == pytest.approx(expected, rel=1e-6)

    def test_bce_gradient_at_zero_logit(self):
        """d/dz at z = 0 is (σ(0) − y)/N = (0.5 − y)/N — the composed form gave −y/N."""
        logits = Tensor(np.array([[0.0, 0.0], [0.0, 1.5]]), requires_grad=True)
        targets = np.array([[1.0, 0.0], [0.25, 1.0]])
        nn.bce_with_logits_loss(logits, Tensor(targets)).backward()
        sigmoid = 1.0 / (1.0 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (sigmoid - targets) / 4.0, rtol=1e-12)
        assert logits.grad[0, 0] == pytest.approx(-0.125)
        assert logits.grad[0, 1] == pytest.approx(0.125)

    def test_kl_zero_for_standard_normal(self):
        mean = Tensor(np.zeros((2, 3)))
        log_var = Tensor(np.zeros((2, 3)))
        assert nn.gaussian_kl_loss(mean, log_var).item() == pytest.approx(0.0)

    def test_kl_positive_otherwise(self):
        mean = Tensor(np.ones((2, 3)))
        log_var = Tensor(np.zeros((2, 3)))
        assert nn.gaussian_kl_loss(mean, log_var).item() > 0.0

    def test_q_error_loss_zero_when_equal(self):
        x = Tensor([5.0, 7.0])
        assert nn.q_error_loss(x, Tensor([5.0, 7.0])).item() == pytest.approx(0.0)

    def test_losses_gradcheck(self):
        prediction = Tensor(np.array([1.2, 0.4, 3.3]), requires_grad=True)
        target = Tensor(np.array([1.0, 0.5, 2.0]))
        assert check_gradients(lambda: nn.msle_loss(prediction, target), [prediction])


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        param = Tensor(np.zeros(2), requires_grad=True)

        def loss():
            diff = param - Tensor(target)
            return (diff * diff).sum()

        return param, loss, target

    def test_sgd_converges(self):
        param, loss, target = self._quadratic_problem()
        optimizer = nn.SGD([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss().backward()
            optimizer.step()
        assert np.allclose(param.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        param, loss, target = self._quadratic_problem()
        optimizer = nn.SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            optimizer.zero_grad()
            loss().backward()
            optimizer.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_adam_converges(self):
        param, loss, target = self._quadratic_problem()
        optimizer = nn.Adam([param], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss().backward()
            optimizer.step()
        assert np.allclose(param.data, target, atol=1e-2)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_in_place_is_bit_identical_to_the_textbook_expressions(self, weight_decay):
        """``Adam.step`` updates ``_m`` / ``_v`` / ``param.data`` in place; the
        out-of-place expressions it replaced give the same bits, step after step."""
        rng = np.random.default_rng(0)
        shapes = [(7, 5), (5,), (3, 4, 2)]
        params = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        optimizer = nn.Adam(params, lr=3e-3, weight_decay=weight_decay)
        moments = [(m, v) for m, v in zip(optimizer._m, optimizer._v)]
        data = [p.data.copy() for p in params]
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        beta1, beta2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
        for step in range(1, 26):
            for index, param in enumerate(params):
                param.grad = rng.normal(size=param.shape) * 10.0 ** rng.integers(-6, 3)
                grad = param.grad.copy()
                if weight_decay:
                    grad = grad + weight_decay * data[index]
                first[index] = beta1 * first[index] + (1.0 - beta1) * grad
                second[index] = beta2 * second[index] + (1.0 - beta2) * grad ** 2
                m_hat = first[index] / (1.0 - beta1 ** step)
                v_hat = second[index] / (1.0 - beta2 ** step)
                data[index] = data[index] - lr * m_hat / (np.sqrt(v_hat) + eps)
            kept = [p.grad.copy() for p in params]
            optimizer.step()
            for index, param in enumerate(params):
                assert np.array_equal(param.data, data[index])
                assert np.array_equal(optimizer._m[index], first[index])
                assert np.array_equal(optimizer._v[index], second[index])
                assert np.array_equal(param.grad, kept[index])  # the gradient is only read
        # ... and the moment arrays are the ones the optimizer was built with.
        assert all(m is a and v is b for (a, b), m, v in zip(moments, optimizer._m, optimizer._v))

    def test_weight_decay_shrinks_parameters(self):
        param = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = nn.SGD([param], lr=0.1, weight_decay=0.5)
        for _ in range(50):
            optimizer.zero_grad()
            (param * 0.0).sum().backward()  # no data gradient, only decay
            optimizer.step()
        assert abs(param.data[0]) < 10.0

    def test_clip_grad_norm(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = nn.SGD([param], lr=0.1)
        optimizer.zero_grad()
        (param * 100.0).sum().backward()
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(100.0)
        assert np.linalg.norm(param.grad) <= 1.0 + 1e-9

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_step_lr_schedule(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = nn.Adam([param], lr=1.0)
        scheduler = nn.StepLR(optimizer, step_size=2, gamma=0.5)
        scheduler.step()
        assert optimizer.lr == pytest.approx(1.0)
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.5)


class TestSerialization:
    def test_serialized_size_positive_and_grows(self):
        small = nn.mlp([3, 4, 1], rng=np.random.default_rng(0))
        big = nn.mlp([3, 64, 64, 1], rng=np.random.default_rng(0))
        assert 0 < nn.serialized_size(small) < nn.serialized_size(big)
