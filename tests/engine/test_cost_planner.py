"""The planner drives with the plan it prices cheapest.

A plan's price is its driver's probe plus each residual's verify over the
rows flowing into it, from the indexes' measured cost constants.  Load-bearing:

* answers are the linear scan's whatever predicate drives;
* with one index class, size and distance everywhere the price rises with the
  estimate, so the smallest estimate drives (the paper's rule);
* a sharded attribute's probe is priced as all of its shards' probes;
* no clock is read when pricing, so a workload plans the same every time.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interface import CardinalityEstimator
from repro.datasets import (
    make_binary_dataset,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.distances import get_distance
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.engine.planner import GPH_PART_CURVE_COST_US
from repro.selection import (
    BallIndexEuclideanSelector,
    LinearScanSelector,
    PackedHammingSelector,
    PigeonholeHammingSelector,
    QGramEditSelector,
)
from repro.sharding import ShardedSelector

ROWS = 40


class ConstantEstimator(CardinalityEstimator):
    """The same estimate for every probe and threshold."""

    name = "Constant"
    monotonic = True

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def estimate_batch(self, records, thetas):
        return np.full(len(records), self.value)


#: attribute → (distance, rows, θmax)
RELATION = {
    "hm": (
        "hamming",
        make_binary_dataset(num_records=ROWS, dimension=32, num_clusters=3, seed=5).records,
        12.0,
    ),
    "ed": (
        "edit",
        make_string_dataset(num_records=ROWS, num_clusters=3, base_length=6, seed=5).records,
        4.0,
    ),
    "jc": (
        "jaccard",
        make_set_dataset(
            num_records=ROWS, num_clusters=3, universe_size=30, base_set_size=5, seed=5
        ).records,
        0.8,
    ),
    "eu": (
        "euclidean",
        make_vector_dataset(num_records=ROWS, dimension=4, num_clusters=3, seed=5).records,
        1.2,
    ),
}


@lru_cache(maxsize=None)
def relation_engine(sharded: str) -> SimilarityQueryEngine:
    """All four distances; ``hm`` is GPH-planned unless it is the sharded one."""
    engine = SimilarityQueryEngine()
    for name, (distance, rows, theta_max) in RELATION.items():
        if name == sharded:
            engine.register_sharded_attribute(
                name, rows, distance, lambda shard_rows, _: ConstantEstimator(5.0),
                num_shards=3, theta_max=theta_max,
            )
        else:
            engine.register_attribute(
                name, rows, distance, ConstantEstimator(5.0), theta_max=theta_max,
                selector=PigeonholeHammingSelector(rows, part_size=8) if name == "hm" else None,
            )
    return engine


def forced(plan, attribute):
    """``plan`` driven by ``attribute``'s predicate instead, residuals ascending."""
    everyone = [plan.driver, *plan.residuals]
    driver = next(p for p in everyone if p.attribute == attribute)
    residuals = sorted(
        (p for p in everyone if p is not driver), key=lambda p: p.estimated_cardinality
    )
    return replace(plan, driver=driver, residuals=residuals, allocation=None)


@settings(max_examples=30, deadline=None)
@given(
    sharded=st.sampled_from(sorted(RELATION)),
    row=st.integers(0, ROWS - 1),
    shares=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_every_forced_driver_answers_like_the_linear_scan(sharded, row, shares):
    engine = relation_engine(sharded)
    predicates, expected = [], set(range(ROWS))
    for (name, (distance, rows, theta_max)), share in zip(RELATION.items(), shares):
        theta = share * theta_max
        predicates.append(SimilarityPredicate(name, rows[row], theta))
        expected &= set(LinearScanSelector(rows, get_distance(distance)).query(rows[row], theta))
    plan = engine.explain(ConjunctiveQuery(predicates))
    assert engine.executor.execute(plan).record_ids == sorted(expected)
    for name in RELATION:
        result = engine.executor.execute(forced(plan, name))
        assert result.record_ids == sorted(expected), name


def euclidean_engine(estimates):
    """Euclidean attributes of one index class and size, with fixed estimates."""
    engine = SimilarityQueryEngine()
    vectors = RELATION["eu"][1]
    for index, value in enumerate(estimates):
        engine.register_attribute(
            f"a{index}", vectors, "euclidean", ConstantEstimator(value), theta_max=1.2,
            selector=BallIndexEuclideanSelector(vectors),
        )
    return engine


@pytest.mark.parametrize(
    "estimates", [(9.0, 3.0, 27.0), (30.0, 1.0, 2.0, 20.0), (4.0, 4.0, 1.0), (0.0, 7.0)]
)
def test_with_equal_classes_the_smallest_estimate_drives(estimates):
    engine = euclidean_engine(estimates)
    vector = RELATION["eu"][1][0]
    for order in (list(range(len(estimates))), list(reversed(range(len(estimates))))):
        query = ConjunctiveQuery([SimilarityPredicate(f"a{i}", vector, 0.5) for i in order])
        plan = engine.explain(query)
        smallest = min(estimates)
        first = next(p for p in query.predicates if estimates[int(p.attribute[1:])] == smallest)
        assert plan.driver.predicate is first
        residual_estimates = [p.estimated_cardinality for p in plan.residuals]
        assert residual_estimates == sorted(residual_estimates)


def test_sharded_probe_cost_is_the_sum_of_its_shards():
    rows = RELATION["ed"][1]
    sharded = ShardedSelector(rows, QGramEditSelector, num_shards=3)
    for estimate in (0.0, 4.0, 25.0):
        assert sharded.probe_cost(estimate) == pytest.approx(
            sum(s.probe_cost(estimate * len(s) / len(rows)) for s in sharded.shards)
        )
        # More than the unsharded index: every shard pays its fixed cost.
        assert sharded.probe_cost(estimate) > QGramEditSelector(rows).probe_cost(estimate)
    # A verify gathers the rows shard by shard and runs one kernel over them.
    assert sharded.verify_cost(10.0) == QGramEditSelector(rows).verify_cost(10.0)


def test_plans_are_deterministic():
    engine = relation_engine("ed")
    rng = np.random.default_rng(3)
    queries = [
        ConjunctiveQuery([
            SimilarityPredicate(name, rows[int(rng.integers(ROWS))], rng.uniform(0, 1) * theta_max)
            for name, (_, rows, theta_max) in RELATION.items()
        ])
        for _ in range(12)
    ]

    def summary(plans):
        return [
            (p.driver.attribute, [r.attribute for r in p.residuals], p.estimated_cost,
             p.allocation)
            for p in plans
        ]

    first = summary(engine.planner.plan_many(queries))
    assert first == summary(engine.planner.plan_many(queries))
    assert first == summary(engine.planner.plan(query) for query in queries)
    assert all(cost > 0 for _, _, cost, _ in first)


def test_a_cheap_index_outdrives_a_smaller_estimate():
    """A sharded q-gram edit index with the smaller estimate loses to a sharded
    packed Hamming index: four fixed edit probes cost more than verifying the
    Hamming matches' edit distances."""
    records = 2000
    strings = make_string_dataset(num_records=records, num_clusters=8, seed=1).records
    bits = make_binary_dataset(num_records=records, dimension=64, seed=1).records
    engine = SimilarityQueryEngine()
    engine.register_sharded_attribute(
        "ed", strings, "edit", lambda shard_rows, _: ConstantEstimator(10.0),
        num_shards=4, theta_max=4.0,
    )
    engine.register_sharded_attribute(
        "hm", bits, "hamming", lambda shard_rows, _: ConstantEstimator(15.0),
        num_shards=4, theta_max=12.0,
    )
    query = ConjunctiveQuery([
        SimilarityPredicate("ed", strings[0], 2.0), SimilarityPredicate("hm", bits[0], 6.0)
    ])
    plan = engine.explain(query)
    assert plan.driver.attribute == "hm"
    assert [p.attribute for p in plan.residuals] == ["ed"]
    ed, hm = (engine.catalog.get(name).selector for name in ("ed", "hm"))
    assert isinstance(hm.shards[0], PackedHammingSelector)
    assert plan.estimated_cost == pytest.approx(hm.probe_cost(60.0) + ed.verify_cost(60.0))
    assert plan.estimated_cost < ed.probe_cost(40.0) + hm.verify_cost(40.0)
    assert f"estimated cost: {plan.estimated_cost:.0f} us" in plan.describe()


def test_a_gph_driver_pays_its_allocation_priced_cold():
    _, rows, theta_max = RELATION["hm"]
    engine = SimilarityQueryEngine()
    engine.register_attribute(
        "hm", rows, "hamming", ConstantEstimator(5.0), theta_max=theta_max,
        selector=PigeonholeHammingSelector(rows, part_size=8),
    )
    plan = engine.explain(SimilarityPredicate("hm", rows[0], 6.0))
    binding = engine.catalog.get("hm")
    assert plan.allocation is not None
    assert plan.estimated_cost == pytest.approx(
        binding.selector.probe_cost(5.0) + GPH_PART_CURVE_COST_US * len(binding.part_endpoints)
    )
    report = engine.explain_analyze(SimilarityPredicate("hm", rows[0], 6.0), feedback=False)
    assert report.plan["estimated_cost"] == pytest.approx(plan.estimated_cost)
