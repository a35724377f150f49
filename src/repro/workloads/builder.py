"""Workload construction: query sampling, threshold sampling, label generation.

Mirrors paper §6.1 and §9.1.1 / §9.12:

* a query workload Q is sampled from the dataset (10% uniform sample by
  default), then split 80 : 10 : 10 into train / validation / test;
* a set S of thresholds is sampled uniformly from [0, θ_max]; every training
  query is labelled at every threshold in S by an exact selection algorithm;
* alternative sampling policies — *multiple uniform samples* and *single
  skewed sample* (uniform over clusters, then uniform within the cluster) —
  reproduce the robustness study of §9.12 (Tables 14–16).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..datasets.synthetic import Dataset
from ..distances.base import within
from ..selection import SimilaritySelector, default_selector
from .examples import QueryExample, Workload

SAMPLING_POLICIES = ("single_uniform", "multi_uniform", "skewed")

#: Cap on the (examples, Δ rows) cells :func:`relabel_delta` compares at once.
_PANEL_CELLS = 1 << 20


def sample_thresholds(
    theta_max: float,
    num_thresholds: int,
    integer_valued: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniformly sample the threshold set S ⊂ [0, θ_max] used for labelling."""
    if num_thresholds <= 0:
        raise ValueError("num_thresholds must be positive")
    if integer_valued:
        all_values = np.arange(0, int(theta_max) + 1)
        if num_thresholds >= all_values.size:
            return all_values.astype(np.float64)
        chosen = rng.choice(all_values, size=num_thresholds, replace=False)
        return np.sort(chosen).astype(np.float64)
    return np.sort(rng.uniform(0.0, theta_max, size=num_thresholds))


def sample_query_indexes(
    dataset: Dataset,
    num_queries: int,
    policy: str,
    rng: np.random.Generator,
    num_samples: int = 5,
) -> np.ndarray:
    """Pick query record indexes according to a sampling policy (paper §9.12).

    ``single_uniform``: one uniform sample of the dataset.
    ``multi_uniform``: union of ``num_samples`` smaller uniform samples
        (with replacement between samples, deduplicated).
    ``skewed``: pick a cluster uniformly at random, then a record uniformly
        from that cluster — over-representing small clusters.
    """
    if policy not in SAMPLING_POLICIES:
        raise KeyError(f"unknown sampling policy {policy!r}; options: {SAMPLING_POLICIES}")
    population = len(dataset)
    num_queries = min(num_queries, population)
    if policy == "single_uniform":
        return rng.choice(population, size=num_queries, replace=False)
    if policy == "multi_uniform":
        per_sample = max(1, num_queries // num_samples)
        picks: List[int] = []
        for _ in range(num_samples):
            picks.extend(rng.choice(population, size=per_sample, replace=False).tolist())
        unique = np.unique(np.asarray(picks, dtype=np.int64))
        if unique.size > num_queries:
            unique = rng.choice(unique, size=num_queries, replace=False)
        return unique
    # skewed: uniform over clusters, then uniform within the chosen cluster
    labels = dataset.cluster_labels
    clusters = np.unique(labels)
    picks = []
    for _ in range(num_queries):
        cluster = rng.choice(clusters)
        members = np.nonzero(labels == cluster)[0]
        picks.append(int(rng.choice(members)))
    return np.asarray(sorted(set(picks)), dtype=np.int64)


def label_queries(
    queries: Sequence,
    thresholds: Sequence[float],
    selector: SimilaritySelector,
) -> List[QueryExample]:
    """Compute exact cardinalities for every (query, threshold) combination.

    One :meth:`SimilaritySelector.cardinality_curve` call per query record
    answers every threshold from a single distance computation, instead of one
    scalar ``cardinality`` call per (query, threshold) pair.
    """
    thresholds = [float(theta) for theta in thresholds]
    examples: List[QueryExample] = []
    for record in queries:
        curve = selector.cardinality_curve(record, thresholds)
        examples.extend(
            QueryExample(record=record, theta=theta, cardinality=int(cardinality))
            for theta, cardinality in zip(thresholds, curve)
        )
    return examples


def build_workload(
    dataset: Dataset,
    query_fraction: float = 0.1,
    num_thresholds: int = 8,
    split: Sequence[float] = (0.8, 0.1, 0.1),
    policy: str = "single_uniform",
    selector: Optional[SimilaritySelector] = None,
    max_queries: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Construct a labelled workload following the paper's §6.1 recipe.

    The split is applied at the *query record* level (as in the paper), so all
    thresholds of one query land in the same partition.  Test thresholds are
    drawn fresh from the full range [0, θ_max] rather than reusing S, matching
    the paper's "uniformly choose thresholds in S for validation and in
    [0, θ_max] for testing".
    """
    if abs(sum(split) - 1.0) > 1e-9 or len(split) != 3:
        raise ValueError("split must be three fractions summing to 1")
    rng = np.random.default_rng(seed)
    from ..distances import get_distance

    distance = get_distance(dataset.distance_name)
    if selector is None:
        selector = default_selector(dataset.distance_name, dataset.records)

    num_queries = max(3, int(round(query_fraction * len(dataset))))
    if max_queries is not None:
        num_queries = min(num_queries, max_queries)
    query_indexes = sample_query_indexes(dataset, num_queries, policy, rng)
    rng.shuffle(query_indexes)

    train_count = int(round(split[0] * len(query_indexes)))
    valid_count = int(round(split[1] * len(query_indexes)))
    train_ids = query_indexes[:train_count]
    valid_ids = query_indexes[train_count : train_count + valid_count]
    test_ids = query_indexes[train_count + valid_count :]

    thresholds = sample_thresholds(dataset.theta_max, num_thresholds, distance.integer_valued, rng)

    def records_for(ids: np.ndarray) -> List:
        return [dataset.records[int(i)] for i in ids]

    workload = Workload()
    workload.train = label_queries(records_for(train_ids), thresholds, selector)
    workload.validation = label_queries(records_for(valid_ids), thresholds, selector)
    test_thresholds = sample_thresholds(
        dataset.theta_max, num_thresholds, distance.integer_valued, rng
    )
    workload.test = label_queries(records_for(test_ids), test_thresholds, selector)
    return workload


def relabel(
    examples: Sequence[QueryExample], selector: SimilaritySelector
) -> List[QueryExample]:
    """Recompute labels for existing queries against an updated dataset (paper §8).

    Workloads list each query record's thresholds consecutively, so runs of
    examples sharing one record (by identity) are relabelled with a single
    ``cardinality_curve`` call instead of one scalar call per example.
    """
    examples = list(examples)
    relabelled: List[QueryExample] = []
    index = 0
    while index < len(examples):
        record = examples[index].record
        run_end = index
        while run_end < len(examples) and examples[run_end].record is record:
            run_end += 1
        run = examples[index:run_end]
        curve = selector.cardinality_curve(record, [example.theta for example in run])
        relabelled.extend(
            QueryExample(record=record, theta=example.theta, cardinality=int(cardinality))
            for example, cardinality in zip(run, curve)
        )
        index = run_end
    return relabelled


def relabel_delta(
    examples: Sequence[QueryExample],
    selector: SimilaritySelector,
    inserted: Sequence,
    removed: Sequence,
) -> List[QueryExample]:
    """Relabel against only the Δ rows an update touched: one distance pass.

    Exact cardinalities are additive over disjoint record sets: after an
    update the live dataset is ``old ∪ inserted − removed`` (as multisets),
    so for every query and threshold::

        card_new = card_old + card(inserted) − card(removed)

    ``card_old`` is already stored on each example.  The correction builds no
    index: the Δ rows are stacked once with a sign (+1 inserted, −1 removed),
    each distinct query record gets one distance vector against them from
    ``selector.distance``, and every example adds
    ``within(distance, θ) @ sign`` — the comparison
    :class:`~repro.selection.LinearScanSelector` makes on the distances
    ``cross_distances`` shares with ``distances_to``, so the corrected label
    is the one a full :func:`relabel` computes.  A record inserted and later
    removed appears with both signs and cancels exactly, so deltas
    accumulated across several operations (the manager's pending-train path)
    stay exact.
    """
    inserted, removed, examples = list(inserted), list(removed), list(examples)
    if not (inserted or removed) or not examples:
        return examples
    sign = np.repeat(np.asarray([1, -1], dtype=np.int64), [len(inserted), len(removed)])
    # Distinct query records by identity, and each example's row among them.
    records = list({id(example.record): example.record for example in examples}.values())
    slot = {id(record): index for index, record in enumerate(records)}
    which = np.asarray([slot[id(example.record)] for example in examples], dtype=np.int64)
    thetas = np.asarray([example.theta for example in examples], dtype=np.float64)
    labels = np.asarray([example.cardinality for example in examples], dtype=np.int64)
    distances = selector.distance.cross_distances(records, inserted + removed)
    # Compare in blocks of examples: each example needs its record's distance
    # row, and copying all of them at once would hold (examples, Δ) floats.
    step = max(1, _PANEL_CELLS // len(sign))
    for start in range(0, len(examples), step):
        block = slice(start, start + step)
        labels[block] += within(distances[which[block]], thetas[block, None]) @ sign
    return [
        QueryExample(record=example.record, theta=example.theta, cardinality=int(cardinality))
        for example, cardinality in zip(examples, labels)
    ]

