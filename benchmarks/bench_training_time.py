"""E7 — Table 10: training time, and E8 — Figure 7: accuracy vs training-set size.

Paper shapes:
* Table 10 — traditional-learning models train faster than deep models;
  CardNet-A trains faster than CardNet (Φ′ sees each query once; Φ sees it
  τ+1 times, once per distance embedding).
* Figure 7 — all models degrade with less training data, but CardNet degrades
  the most gracefully.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import build_estimator
from repro.metrics import mean_q_error


def test_table10_training_time(hm_dataset, hm_workload, print_table, benchmark):
    names = ["TL-XGB", "DL-DNN", "CardNet", "CardNet-A"]
    timings = {}
    for name in names:
        estimator = build_estimator(name, hm_dataset, seed=0, epochs=8)
        start = time.perf_counter()
        estimator.fit(hm_workload.train, hm_workload.validation)
        timings[name] = time.perf_counter() - start
    rows = [[name, f"{seconds:.2f}"] for name, seconds in timings.items()]
    print_table("Table 10 — training time", ["model", "seconds"], rows)

    # Shape check that holds at any scale: the accelerated variant does not
    # train slower than CardNet.  Both run their encoder once per batch, but Φ
    # runs over batch × (τ+1) stacked [x′ ; e_i] rows and Φ′ over batch rows
    # with (τ+1)-wide heads — several times fewer multiply-adds at these
    # widths.  The paper's "traditional learning trains faster than
    # deep learning" ordering needs the full-scale workloads (hours vs minutes)
    # and is reported in the table only.
    assert timings["CardNet-A"] < timings["CardNet"] * 1.5

    # Timed operation: one training epoch's worth of work for CardNet-A.
    def one_short_fit():
        estimator = build_estimator("CardNet-A", hm_dataset, seed=1, epochs=1)
        estimator.fit(hm_workload.train[:60], hm_workload.validation[:20])

    benchmark.pedantic(one_short_fit, rounds=1, iterations=1)


def test_figure7_training_size_sweep(hm_dataset, hm_workload, print_table, benchmark):
    actual = np.asarray([e.cardinality for e in hm_workload.test], dtype=np.float64)
    fractions = [0.3, 1.0]
    names = ["TL-XGB", "CardNet-A"]
    table = {name: [] for name in names}
    for fraction in fractions:
        count = max(20, int(round(fraction * len(hm_workload.train))))
        subset = hm_workload.train[:count]
        for name in names:
            estimator = build_estimator(name, hm_dataset, seed=0, epochs=40)
            estimator.fit(subset, hm_workload.validation)
            error = mean_q_error(actual, estimator.estimate_many(hm_workload.test))
            table[name].append(error)
    rows = [
        [f"{int(100 * fraction)}%"] + [f"{table[name][i]:.2f}" for name in names]
        for i, fraction in enumerate(fractions)
    ]
    print_table("Figure 7 — mean q-error vs training size", ["training size"] + names, rows)

    # Shape check: with the full training data CardNet-A is not worse than with 30%.
    assert table["CardNet-A"][-1] <= table["CardNet-A"][0] * 1.25

    # Timed operation: the last model fitted (CardNet-A, full data) over the test split.
    benchmark(lambda: estimator.estimate_many(hm_workload.test))
