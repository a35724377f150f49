"""E14 — Tables 14, 15, 16: robustness to the query-workload sampling policy.

The paper trains on a single uniform sample, multiple uniform samples, or a
single *skewed* (cluster-balanced) sample, and tests on multiple uniform
samples.  Paper shape: CardNet's error changes only moderately across training
policies and it remains ahead of the baselines under every policy.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import build_estimator
from repro.metrics import mean_q_error
from repro.workloads import build_workload


def test_tables14_15_16_sampling_policies(hm_dataset, print_table, benchmark):
    policies = ("single_uniform", "multi_uniform", "skewed")
    # A common test workload built from multiple uniform samples (the paper's test setting).
    test_workload = build_workload(
        hm_dataset, query_fraction=0.06, num_thresholds=6, policy="multi_uniform", seed=42
    )
    test_examples = test_workload.test + test_workload.validation
    actual = np.asarray([e.cardinality for e in test_examples], dtype=np.float64)

    compared = ["TL-XGB", "CardNet-A"]
    table = {}
    for policy in policies:
        train_workload = build_workload(
            hm_dataset, query_fraction=0.08, num_thresholds=6, policy=policy, seed=7
        )
        for name in compared:
            estimator = build_estimator(name, hm_dataset, seed=0, epochs=50)
            estimator.fit(train_workload.train, train_workload.validation)
            table[(policy, name)] = mean_q_error(actual, estimator.estimate_many(test_examples))

    rows = [
        [policy] + [f"{table[(policy, name)]:.2f}" for name in compared] for policy in policies
    ]
    print_table(
        "Tables 14/15/16 — mean q-error by training sampling policy",
        ["training policy"] + compared,
        rows,
    )

    # Shape checks: CardNet-A stays ahead of (or at least competitive with) the
    # baselines under every training policy, and its error under the skewed
    # policy does not blow up relative to the uniform policy.
    for policy in policies:
        cardnet = table[(policy, "CardNet-A")]
        best_baseline = min(table[(policy, name)] for name in compared if name != "CardNet-A")
        assert cardnet <= best_baseline * 2.0
    assert table[("skewed", "CardNet-A")] <= table[("single_uniform", "CardNet-A")] * 2.0

    # Timed operation: the last model fitted (CardNet-A, skewed policy) over the test set.
    benchmark(lambda: estimator.estimate_many(test_examples))
