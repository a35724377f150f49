"""E13 — Figures 13 & 14: cardinality estimation inside the GPH Hamming optimizer.

GPH allocates per-part thresholds by minimizing the sum of estimated per-part
cardinalities.  The harness compares allocation policies (Exact, per-part
histogram, CardNet-A per part, query-independent Mean) by candidates examined
and total time, and sweeps the histogram size (Figure 14).

Paper shape: Exact ≈ CardNet-A < Histogram < Mean in candidates/time; larger
histograms help the histogram policy but it stays behind the learned model.

A paper-figure reproduction with no CI gate (ROADMAP retirement item, bin 1).
Each query is planned by ``GPHQueryProcessor.plan`` and run the way the
engine's executor runs a GPH driver: ``selector.verified_candidates`` under the
plan's allocation.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import CardNetEstimator
from repro.datasets.synthetic import Dataset
from repro.optimizer import (
    ExactPartCardinalities,
    GPHQueryProcessor,
    MeanPartCardinalities,
    ModelPartCardinalities,
)
from repro.workloads import build_workload

PART_SIZE = 16


@pytest.fixture(scope="module")
def gph_processor(hm_dataset):
    return GPHQueryProcessor(hm_dataset.records, part_size=PART_SIZE)


@pytest.fixture(scope="module")
def cardnet_part_models(hm_dataset, gph_processor):
    """One small CardNet-A per dimension part, trained on that part's columns."""
    models = []
    for part_index, (start, stop) in enumerate(gph_processor.selector.parts):
        matrix = np.ascontiguousarray(hm_dataset.records[:, start:stop])
        part_dataset = Dataset(
            name=f"part{part_index}",
            records=matrix,
            distance_name="hamming",
            theta_max=float(stop - start),
            cluster_labels=hm_dataset.cluster_labels,
            extra={"dimension": stop - start},
        )
        workload = build_workload(part_dataset, query_fraction=0.05, num_thresholds=6, seed=part_index)
        model = CardNetEstimator.for_dataset(
            part_dataset, accelerated=True, epochs=30, vae_pretrain_epochs=4, seed=part_index
        )
        model.fit(workload.train, workload.validation)
        models.append(model)
    return models


def _plan_and_execute(processor, query, threshold, estimator):
    """(candidates, allocation seconds, processing seconds) of one query."""
    plan = processor.plan(query, threshold, estimator)
    processing_start = time.perf_counter()
    _, num_candidates = processor.selector.verified_candidates(
        query, threshold, allocation=plan.allocation
    )
    return num_candidates, plan.allocation_seconds, time.perf_counter() - processing_start


def _run_policy(processor, queries, thresholds, estimator):
    total_candidates = 0
    total_seconds = 0.0
    allocation_seconds = 0.0
    for query in queries:
        for threshold in thresholds:
            candidates, allocation, processing = _plan_and_execute(
                processor, query, threshold, estimator
            )
            total_candidates += candidates
            total_seconds += allocation + processing
            allocation_seconds += allocation
    return total_candidates, total_seconds, allocation_seconds


def test_figure13_gph_policies(hm_dataset, gph_processor, cardnet_part_models, print_table, benchmark, rng):
    records = hm_dataset.records
    query_ids = rng.choice(len(records), size=10, replace=False)
    queries = [records[int(i)] for i in query_ids]
    thresholds = [8, 12, 16]

    policies = {
        "Exact": ExactPartCardinalities(gph_processor, records),
        "CardNet-A": ModelPartCardinalities(gph_processor, cardnet_part_models),
        "Histogram": ModelPartCardinalities.histograms(gph_processor, records, group_size=8),
        "Mean": MeanPartCardinalities(gph_processor, records),
    }
    results = {
        name: _run_policy(gph_processor, queries, thresholds, estimator)
        for name, estimator in policies.items()
    }
    rows = [
        [name, str(candidates), f"{seconds:.3f}", f"{allocation:.3f}"]
        for name, (candidates, seconds, allocation) in results.items()
    ]
    print_table(
        "Figure 13 — GPH query processing",
        ["policy", "candidates", "total s", "allocation s"],
        rows,
    )

    # Shape checks.  The GPH optimizer minimizes the *sum* of per-part
    # cardinalities, which upper-bounds but does not equal the candidate union,
    # so small inversions are possible at this scale; the exact and learned
    # policies must still be in the same ballpark as (or better than) the
    # query-independent Mean allocation.
    assert results["Exact"][0] <= results["Mean"][0] * 1.35
    assert results["CardNet-A"][0] <= results["Mean"][0] * 1.5

    estimator = policies["CardNet-A"]
    benchmark(lambda: _plan_and_execute(gph_processor, queries[0], 12, estimator))


def test_figure14_histogram_size_sweep(hm_dataset, gph_processor, print_table, benchmark, rng):
    records = hm_dataset.records
    query_ids = rng.choice(len(records), size=8, replace=False)
    queries = [records[int(i)] for i in query_ids]
    threshold = int(hm_dataset.theta_max * 0.5)

    rows = []
    candidate_counts = {}
    for group_size in (4, 8, 16):
        estimator = ModelPartCardinalities.histograms(gph_processor, records, group_size=group_size)
        candidates, seconds, _ = _run_policy(gph_processor, queries, [threshold], estimator)
        candidate_counts[group_size] = candidates
        rows.append([str(group_size), str(candidates), f"{seconds:.3f}"])
    print_table(
        "Figure 14 — histogram granularity sweep (GPH)",
        ["histogram group size (bits)", "candidates", "total s"],
        rows,
    )

    # Shape check: finer histograms (larger groups → exact patterns over more
    # bits) should not lead to more candidates than the coarsest setting.
    assert candidate_counts[16] <= candidate_counts[4] * 1.5

    estimator = ModelPartCardinalities.histograms(gph_processor, records, group_size=8)
    benchmark(lambda: _plan_and_execute(gph_processor, queries[0], threshold, estimator))
