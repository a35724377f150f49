"""Shared fixtures: small datasets, workloads, and trained models.

Expensive fixtures (trained CardNet models) are session-scoped so the whole
suite trains each model exactly once.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.baselines import QueryFeaturizer
from repro.core import CardNetEstimator
from repro.datasets import (
    make_binary_dataset,
    make_multi_attribute_relation,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.workloads import build_workload


# --------------------------------------------------------------------------- #
# Tiny datasets (fast enough for unit tests)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def binary_dataset():
    return make_binary_dataset(
        num_records=300, dimension=32, num_clusters=4, flip_probability=0.1,
        theta_max=12, seed=7, name="HM-Tiny",
    )


@pytest.fixture(scope="session")
def string_dataset():
    return make_string_dataset(
        num_records=200, num_clusters=4, base_length=10, max_mutations=5,
        theta_max=6, seed=7, name="ED-Tiny",
    )


@pytest.fixture(scope="session")
def set_dataset():
    return make_set_dataset(
        num_records=250, num_clusters=4, universe_size=80, base_set_size=10,
        theta_max=0.4, seed=7, name="JC-Tiny",
    )


@pytest.fixture(scope="session")
def vector_dataset():
    return make_vector_dataset(
        num_records=300, dimension=16, num_clusters=4, cluster_std=0.2,
        theta_max=0.8, seed=7, name="EU-Tiny",
    )


@pytest.fixture(scope="session")
def all_datasets(binary_dataset, string_dataset, set_dataset, vector_dataset):
    return [binary_dataset, string_dataset, set_dataset, vector_dataset]


@pytest.fixture(scope="session")
def relation():
    return make_multi_attribute_relation(
        num_records=200, attribute_dims=(12, 12, 8), seed=3, name="Rel-Tiny"
    )


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def binary_workload(binary_dataset):
    return build_workload(binary_dataset, query_fraction=0.1, num_thresholds=5, seed=11)


@pytest.fixture(scope="session")
def set_workload(set_dataset):
    return build_workload(set_dataset, query_fraction=0.1, num_thresholds=5, seed=11)


@pytest.fixture(scope="session")
def vector_workload(vector_dataset):
    return build_workload(vector_dataset, query_fraction=0.1, num_thresholds=5, seed=11)


@pytest.fixture(scope="session")
def string_workload(string_dataset):
    return build_workload(string_dataset, query_fraction=0.1, num_thresholds=4, seed=11)


# --------------------------------------------------------------------------- #
# Featurizers and trained models
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def binary_featurizer(binary_dataset):
    return QueryFeaturizer.for_dataset(binary_dataset)


@pytest.fixture(scope="session")
def trained_cardnet(binary_dataset, binary_workload):
    estimator = CardNetEstimator.for_dataset(
        binary_dataset, epochs=8, vae_pretrain_epochs=3, seed=5
    )
    estimator.fit(binary_workload.train, binary_workload.validation)
    return estimator


@pytest.fixture(scope="session")
def trained_cardnet_accelerated(binary_dataset, binary_workload):
    estimator = CardNetEstimator.for_dataset(
        binary_dataset, accelerated=True, epochs=8, vae_pretrain_epochs=3, seed=5
    )
    estimator.fit(binary_workload.train, binary_workload.validation)
    return estimator


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# --------------------------------------------------------------------------- #
# Client threads: the library owns none, so thread-safety tests bring their own
# --------------------------------------------------------------------------- #
def run_on_client_threads(fn, args, timeout=60.0):
    """``[fn(arg) for arg in args]`` with each call on its own thread, all
    started together.  Results come back in argument order; the first
    argument's error re-raises once every thread finished.  A thread still
    running after ``timeout`` seconds fails the test instead of hanging it
    (the threads are daemons, so a wedged lock cannot pin the interpreter)."""
    args = list(args)
    results = [None] * len(args)
    errors = [None] * len(args)

    def call(index, arg):
        try:
            results[index] = fn(arg)
        except BaseException as error:  # noqa: BLE001 - re-raised on the caller
            errors[index] = error

    threads = [
        threading.Thread(target=call, args=(index, arg), daemon=True)  # repro: ignore[RPR001] - test clients stand in for a caller's own threads
        for index, arg in enumerate(args)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError(f"client threads still running after {timeout}s")
    for error in errors:
        if error is not None:
            raise error
    return results


@pytest.fixture
def client_threads():
    """:func:`run_on_client_threads`, for tests that drive the library from
    several threads at once."""
    return run_on_client_threads
