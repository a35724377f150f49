"""Shared fixtures for the reproductions under ``benchmarks/``.

Every ``bench_*.py`` here either reproduces one table or figure of the paper
or times a serving path no ``benchmarks/e2e`` workload reaches yet (README,
*Tests and benchmarks*, has the file → claim table).  The fixtures below build
scaled-down datasets/workloads and train each estimator exactly once per
session so the whole directory runs on a CPU in about a minute.

A reproduction prints the rows of its table (shape comparison, not absolute
numbers), asserts the paper's shape, writes no file and gates nothing; some use
``pytest-benchmark`` to time their representative operation.  How fast the
system runs, and any comparison between two commits, is ``benchmarks/e2e/run.py``'s
to say.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.baselines import build_estimator
from repro.core import CardinalityEstimator
from repro.datasets import (
    make_binary_dataset,
    make_multi_attribute_relation,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.workloads import Workload, build_workload

#: Estimators compared in the main accuracy/efficiency tables (Tables 3-6).
BENCH_ESTIMATOR_NAMES: List[str] = [
    "DB-SE",
    "DB-US",
    "TL-XGB",
    "TL-KDE",
    "DL-DLN",
    "DL-MoE",
    "DL-RMI",
    "DL-DNN",
    "CardNet",
    "CardNet-A",
]

#: Reduced set used on the non-default datasets to keep the harness fast.
BENCH_SMALL_SUITE: List[str] = ["DB-US", "TL-XGB", "DL-DNN", "CardNet-A"]

BENCH_EPOCHS = 60


def _print_table(title: str, headers: List[str], rows: List[List[str]]) -> None:
    """Render a plain-text table to stdout (captured with pytest -s)."""
    widths = [max(len(str(h)), *(len(str(row[i])) for row in rows)) for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


@pytest.fixture(scope="session")
def print_table():
    return _print_table


def pytest_addoption(parser):
    parser.addoption(
        "--run-break-even",
        action="store_true",
        default=False,
        help="run bench_fan_out_break_even.py's table "
        "(~1 min, ~0.5 GB at its largest cell)",
    )


# --------------------------------------------------------------------------- #
# Datasets (one per distance function, mirroring the paper's default datasets)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def hm_dataset():
    return make_binary_dataset(
        num_records=600, dimension=32, num_clusters=8, flip_probability=0.08,
        theta_max=12, seed=0, name="HM-Bench",
    )


@pytest.fixture(scope="session")
def ed_dataset():
    return make_string_dataset(
        num_records=300, num_clusters=6, base_length=10, max_mutations=5,
        theta_max=6, seed=0, name="ED-Bench",
    )


@pytest.fixture(scope="session")
def jc_dataset():
    return make_set_dataset(
        num_records=400, num_clusters=6, universe_size=100, base_set_size=10,
        theta_max=0.4, seed=0, name="JC-Bench",
    )


@pytest.fixture(scope="session")
def eu_dataset():
    return make_vector_dataset(
        num_records=450, dimension=20, num_clusters=6, cluster_std=0.18,
        theta_max=0.8, seed=0, name="EU-Bench",
    )


@pytest.fixture(scope="session")
def all_bench_datasets(hm_dataset, ed_dataset, jc_dataset, eu_dataset):
    return {
        "HM-Bench": hm_dataset,
        "ED-Bench": ed_dataset,
        "JC-Bench": jc_dataset,
        "EU-Bench": eu_dataset,
    }


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def hm_workload(hm_dataset) -> Workload:
    return build_workload(hm_dataset, query_fraction=0.07, num_thresholds=6, seed=1)


@pytest.fixture(scope="session")
def all_bench_workloads(all_bench_datasets) -> Dict[str, Workload]:
    return {
        name: build_workload(dataset, query_fraction=0.07, num_thresholds=5, seed=1)
        for name, dataset in all_bench_datasets.items()
    }


# --------------------------------------------------------------------------- #
# Trained estimator suites
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def hm_estimators(hm_dataset, hm_workload) -> Dict[str, CardinalityEstimator]:
    """Full comparison suite trained on the default (Hamming) benchmark dataset."""
    estimators: Dict[str, CardinalityEstimator] = {}
    for name in BENCH_ESTIMATOR_NAMES:
        estimator = build_estimator(name, hm_dataset, seed=0, epochs=BENCH_EPOCHS)
        estimator.fit(hm_workload.train, hm_workload.validation)
        estimators[name] = estimator
    return estimators


@pytest.fixture(scope="session")
def small_suites(all_bench_datasets, all_bench_workloads) -> Dict[str, Dict[str, CardinalityEstimator]]:
    """Reduced suite trained on every distance function's benchmark dataset."""
    suites: Dict[str, Dict[str, CardinalityEstimator]] = {}
    for name, dataset in all_bench_datasets.items():
        workload = all_bench_workloads[name]
        suite: Dict[str, CardinalityEstimator] = {}
        for estimator_name in BENCH_SMALL_SUITE:
            estimator = build_estimator(estimator_name, dataset, seed=0, epochs=BENCH_EPOCHS)
            estimator.fit(workload.train, workload.validation)
            suite[estimator_name] = estimator
        suites[name] = suite
    return suites


@pytest.fixture(scope="session")
def relation():
    return make_multi_attribute_relation(
        num_records=500, attribute_dims=(16, 16, 12), cluster_std_range=(0.16, 0.24),
        seed=2, name="Bench-Relation",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(99)
