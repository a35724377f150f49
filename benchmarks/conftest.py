"""Shared fixtures for the reproductions under ``benchmarks/``.

Every ``bench_*.py`` here either reproduces tables or figures of the paper
or times a serving path no ``benchmarks/e2e`` workload reaches yet (README,
*Tests and benchmarks*, has the file → claim table).  The fixtures below build
one scaled-down dataset and workload per distance (``hm_workload`` is the
Hamming one) and train the full comparison suite once per distance
(``bench_suites``; ``hm_estimators`` is its Hamming entry), so the whole
directory runs on a CPU in about a minute.

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
def all_bench_workloads(all_bench_datasets, hm_workload) -> Dict[str, Workload]:
    """One workload per distance; the default (Hamming) one is ``hm_workload``."""
    return {
        name: hm_workload if name == "HM-Bench"
        else build_workload(dataset, query_fraction=0.07, num_thresholds=5, seed=1)
        for name, dataset in all_bench_datasets.items()
    }


# --------------------------------------------------------------------------- #
# Trained estimator suites
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def bench_suites(all_bench_datasets, all_bench_workloads) -> Dict[str, Dict[str, CardinalityEstimator]]:
    """The full comparison suite, trained once on every distance's workload."""
    suites: Dict[str, Dict[str, CardinalityEstimator]] = {}
    for dataset_name, dataset in all_bench_datasets.items():
        workload = all_bench_workloads[dataset_name]
        suites[dataset_name] = {
            name: build_estimator(name, dataset, seed=0, epochs=BENCH_EPOCHS).fit(
                workload.train, workload.validation
            )
            for name in BENCH_ESTIMATOR_NAMES
        }
    return suites


@pytest.fixture(scope="session")
def hm_estimators(bench_suites) -> Dict[str, CardinalityEstimator]:
    """The suite trained on the default (Hamming) benchmark dataset."""
    return bench_suites["HM-Bench"]


@pytest.fixture(scope="session")
def relation():
    return make_multi_attribute_relation(
        num_records=500, attribute_dims=(16, 16, 12), cluster_std_range=(0.16, 0.24),
        seed=2, name="Bench-Relation",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(99)
