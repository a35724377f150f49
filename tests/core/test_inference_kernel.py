"""The graph-free inference kernel against the autograd graph it replaced.

``CardNet.estimate_curve`` / ``estimate`` run on plain arrays; ``forward``
keeps the :class:`Tensor` graph for training and is the reference here.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import CardNet, CardNetConfig
from repro.nn import Tensor
from repro.store import load_component, save_component

INPUT_DIMENSION = 12

configs = st.builds(
    CardNetConfig,
    tau_max=st.integers(0, 9),
    vae_latent_dimension=st.integers(1, 6),
    vae_hidden_sizes=st.lists(st.integers(1, 10), min_size=1, max_size=2).map(tuple),
    distance_embedding_dimension=st.integers(1, 4),
    embedding_dimension=st.integers(1, 9),
    encoder_hidden_sizes=st.lists(st.integers(1, 10), min_size=1, max_size=3).map(tuple),
    accelerated=st.booleans(),
    seed=st.integers(0, 50),
)


def reference_curves(model: CardNet, features: np.ndarray) -> np.ndarray:
    """One ``forward(..., deterministic=True)`` pass per τ, stacked into curves."""
    columns = [
        model.forward(Tensor(features), np.full(len(features), tau), deterministic=True).data
        for tau in range(model.tau_max + 1)
    ]
    return np.stack(columns, axis=1)


def one_optimizer_step(model: CardNet, features: np.ndarray) -> None:
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    taus = np.full(len(features), model.tau_max)
    loss = model.forward(Tensor(features), taus, deterministic=False).sum() + model.vae_loss(
        Tensor(features)
    )
    loss.backward()
    optimizer.step()


def curves_after_snapshot(model: CardNet, features: np.ndarray):
    """(kernel curves, graph curves) of the model restored from a snapshot,
    with every parameter array read-only: a kernel that writes to a weight
    raises instead of answering."""
    with tempfile.TemporaryDirectory() as directory:
        save_component(model, Path(directory) / "model")
        restored = load_component(Path(directory) / "model")
    for parameter in restored.parameters():
        parameter.data.setflags(write=False)
    return restored.estimate_curve(features), reference_curves(restored, features)


@settings(max_examples=30, deadline=None)
@given(configs, st.sampled_from([1, 7, 64]), st.integers(0, 2**16))
def test_kernel_matches_forward(config, batch, data_seed):
    features = (
        np.random.default_rng(data_seed).integers(0, 2, size=(batch, INPUT_DIMENSION)).astype(float)
    )
    model = CardNet(INPUT_DIMENSION, config)
    stages = [
        ("fresh", lambda: None),
        ("stepped", lambda: one_optimizer_step(model, features)),
    ]
    for stage, advance in stages:
        advance()
        curves = model.estimate_curve(features)
        np.testing.assert_allclose(
            curves, reference_curves(model, features), rtol=1e-9, atol=0.0, err_msg=stage
        )
        assert np.all(np.diff(curves, axis=1) >= 0.0), stage
        assert np.all(curves >= 0.0), stage
    restored, reference = curves_after_snapshot(model, features)
    assert np.array_equal(restored, curves)
    np.testing.assert_allclose(restored, reference, rtol=1e-9, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(configs, st.sampled_from([1, 7, 64]), st.integers(0, 2**16))
def test_estimate_is_the_curve_indexed(config, batch, data_seed):
    rng = np.random.default_rng(data_seed)
    features = rng.integers(0, 2, size=(batch, INPUT_DIMENSION)).astype(float)
    taus = rng.integers(0, config.tau_max + 1, size=batch)
    model = CardNet(INPUT_DIMENSION, config)
    direct = model.estimate(features, taus)
    assert np.array_equal(direct, model.estimate_curve(features)[np.arange(batch), taus])


@pytest.mark.parametrize("accelerated", [False, True])
@settings(max_examples=25, deadline=None)
@given(
    configs,
    st.integers(1, 5),
    st.sampled_from([0, 1, 17, 64]),
    st.integers(1, 80),
    st.integers(0, 2**16),
)
def test_stacked_rows_are_each_models_own_curve(
    accelerated, config, num_models, batch, dimension, data_seed
):
    """``CardNet.stacked`` runs S models as one pass of the same kernel: row s
    is bit-for-bit model s's own ``estimate_curve`` at every batch size.

    Wide inputs matter: a matmul over a non-C-ordered stacked operand takes a
    different summation path, which only shows once rows are long enough."""
    config = replace(config, accelerated=accelerated)
    features = (
        np.random.default_rng(data_seed).integers(0, 2, size=(batch, dimension)).astype(float)
    )
    models = [
        CardNet(dimension, replace(config, seed=config.seed + index))
        for index in range(num_models)
    ]
    curves = CardNet.stacked(models).estimate_curve(features)
    assert curves.shape == (num_models, batch, config.tau_max + 1)
    for row, model in enumerate(models):
        assert np.array_equal(curves[row], model.estimate_curve(features)), row


@pytest.mark.parametrize("accelerated", [False, True])
def test_kernel_reads_live_parameters(accelerated):
    """No weight copy is kept: in-place edits and rebinding ``.data`` both show."""
    model = CardNet(INPUT_DIMENSION, CardNetConfig(tau_max=4, accelerated=accelerated))
    features = np.ones((2, INPUT_DIMENSION))
    before = model.estimate_curve(features)
    model.decoders.biases.data += 1.0
    bumped = model.estimate_curve(features)
    assert np.all(bumped > before)
    state = model.state_dict()
    state["decoders.biases"] = state["decoders.biases"] + 1.0
    model.load_state_dict(state)
    assert np.all(model.estimate_curve(features) > bumped)
    np.testing.assert_allclose(
        model.estimate_curve(features), reference_curves(model, features), rtol=1e-9
    )


@pytest.mark.parametrize("accelerated", [False, True])
def test_inference_builds_no_tensor(accelerated, monkeypatch):
    model = CardNet(INPUT_DIMENSION, CardNetConfig(tau_max=4, accelerated=accelerated))
    features = np.ones((3, INPUT_DIMENSION))

    def forbidden(self, *args, **kwargs):
        raise AssertionError("inference constructed a Tensor")

    monkeypatch.setattr(Tensor, "__init__", forbidden)
    model.estimate_curve(features)
    model.estimate(features, np.array([0, 2, 4]))


@pytest.mark.parametrize("accelerated", [False, True])
@pytest.mark.parametrize("taus", [[-1, 0], [0, 5], [7]])
def test_estimate_rejects_tau_outside_range(accelerated, taus):
    """τ > τ_max used to sum every decoder, τ < 0 used to answer 0 (and would
    now wrap around the curve): both are caller errors."""
    model = CardNet(INPUT_DIMENSION, CardNetConfig(tau_max=4, accelerated=accelerated))
    features = np.ones((len(taus), INPUT_DIMENSION))
    with pytest.raises(ValueError, match=r"\[0, 4\]"):
        model.estimate(features, np.asarray(taus))
    assert model.estimate(features, np.full(len(taus), 4)).shape == (len(taus),)
