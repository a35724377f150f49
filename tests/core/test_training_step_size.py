"""A training step's size is a count, not a timing.

Two exact, repeatable numbers stop the tape growing back: how many graph nodes
carry a backward closure in one ``CardNetTrainer._batch_loss``, and how many
``numpy.zeros_like`` calls one ``fit`` makes.  (At PR 20 a step was 158 such
nodes at τ_max = 6 and 248 at τ_max = 16 — nine per distance value — and a fit
on the 480-row set-up below called ``zeros_like`` 15,814 times.)
"""

import numpy as np
import pytest

from repro.core import CardNetEstimator
from repro.core.loss import empirical_tau_distribution
from repro.core.training import featurize_examples
from repro.datasets import make_binary_dataset
from repro.selection import default_selector
from repro.workloads.builder import label_queries

MAX_NODES_PER_STEP = 70
MAX_ZEROS_LIKE_PER_FIT = 500


@pytest.fixture(scope="module")
def dataset():
    return make_binary_dataset(
        num_records=400, dimension=64, num_clusters=8, flip_probability=0.1,
        theta_max=16, seed=5, name="HM-Step",
    )


@pytest.fixture(scope="module")
def labelled(dataset):
    """80 + 20 probes × 6 thresholds: the e2e fixture's 480 training rows per attribute."""
    selector = default_selector("hamming", dataset.records)
    probes = [dataset.records[i] for i in np.random.default_rng(0).permutation(400)[:100]]
    thresholds = np.linspace(2.0, 14.0, 6)
    return (
        label_queries(probes[20:], thresholds, selector),
        label_queries(probes[:20], thresholds, selector),
    )


def nodes_with_backward(root) -> int:
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._parents)
    return count


def step_size(dataset, labelled, accelerated: bool, tau_max: int) -> int:
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=accelerated, tau_max=tau_max, epochs=1, vae_pretrain_epochs=1
    )
    trainer = estimator.trainer
    split = featurize_examples(labelled[0], trainer.extractor)
    estimator.model.train()
    loss = trainer._batch_loss(
        split, np.arange(64), empirical_tau_distribution(split.tau, estimator.model.tau_max)
    )
    assert loss.shape == () and np.isfinite(loss.item())
    return nodes_with_backward(loss)


@pytest.mark.parametrize("accelerated", [False, True], ids=["CardNet", "CardNet-A"])
def test_nodes_per_step_are_few_and_independent_of_tau_max(dataset, labelled, accelerated):
    small = step_size(dataset, labelled, accelerated, tau_max=6)
    large = step_size(dataset, labelled, accelerated, tau_max=16)
    assert small == large
    assert large <= MAX_NODES_PER_STEP


def test_one_fit_allocates_few_zero_arrays(dataset, labelled, monkeypatch):
    training, validation = labelled
    assert len(training) == 480
    calls = 0
    original = np.zeros_like

    def counting_zeros_like(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=6, vae_pretrain_epochs=2, seed=0
    )
    monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
    estimator.fit(training, validation)
    monkeypatch.undo()
    assert estimator.last_training_result.epochs_run == 6
    assert calls < MAX_ZEROS_LIKE_PER_FIT
