"""Scenario 2 (paper §9.11.1): cardinality estimation inside a query optimizer.

Entity-matching blocking rules are conjunctions of similarity predicates over
multiple attributes ("name matches AND affiliation matches ...").  The
optimizer estimates the cardinality of every predicate and evaluates the most
selective one first with an index; the rest are verified on the fly.

This example builds a multi-attribute relation, trains one CardNet-A per
attribute, and compares three planning policies (Exact oracle, CardNet-A, and
a query-independent Mean policy) by planning precision and candidates examined.
Every policy runs on the engine's own planner and executor; a policy is only
the estimate source the planner is given.

Run with:  python examples/entity_matching_optimizer.py
"""

from __future__ import annotations

from repro.baselines import MeanEstimator
from repro.baselines.simple import ExactEstimator
from repro.core import CardNetEstimator
from repro.datasets import make_multi_attribute_relation
from repro.datasets.synthetic import Dataset
from repro.engine import QueryExecutor, QueryPlanner
from repro.optimizer import (
    DirectEstimates,
    generate_conjunctive_queries,
    plan_quality,
    relation_catalog,
)
from repro.selection import BallIndexEuclideanSelector
from repro.workloads import build_workload


def attribute_dataset(relation, attribute: str) -> Dataset:
    matrix = relation.attribute(attribute)
    return Dataset(
        name=f"{relation.name}-{attribute}",
        records=matrix,
        distance_name="euclidean",
        theta_max=0.6,
        cluster_labels=relation.cluster_labels,
        extra={"dimension": matrix.shape[1], "normalized": True},
    )


def main() -> None:
    print("Generating a multi-attribute relation (publication-like records) ...")
    relation = make_multi_attribute_relation(
        num_records=600,
        attribute_dims=(24, 24, 16),
        attribute_names=("title", "authors", "venue"),
        seed=11,
        name="Publications",
    )
    catalog = relation_catalog(relation, num_pivots=12, seed=0)
    executor = QueryExecutor(catalog)
    queries = generate_conjunctive_queries(relation, num_queries=25, threshold_range=(0.2, 0.5), seed=12)

    print("Training one CardNet-A per attribute ...")
    exact_planner, cardnet_planner, mean_planner = {}, {}, {}
    for attribute in relation.attribute_names:
        matrix = relation.attribute(attribute)
        exact_planner[attribute] = ExactEstimator(BallIndexEuclideanSelector(matrix, num_pivots=12, seed=0))

        dataset = attribute_dataset(relation, attribute)
        workload = build_workload(dataset, query_fraction=0.06, num_thresholds=5, seed=13)
        model = CardNetEstimator.for_dataset(dataset, accelerated=True, epochs=12, vae_pretrain_epochs=3, seed=0)
        model.fit(workload.train, workload.validation)
        cardnet_planner[attribute] = model

        mean = MeanEstimator(theta_max=dataset.theta_max, num_buckets=16)
        mean.fit(workload.train, workload.validation)
        mean_planner[attribute] = mean
        print(f"  trained estimators for attribute {attribute!r}")

    print("\nExecuting the conjunctive-query workload under each planning policy:")
    print(f"{'policy':>10}  {'precision':>9}  {'candidates':>10}  {'total time (s)':>14}")
    for policy_name, estimators in (
        ("Exact", exact_planner),
        ("CardNet-A", cardnet_planner),
        ("Mean", mean_planner),
    ):
        plans = QueryPlanner(catalog, DirectEstimates(estimators)).plan_many(queries)
        report = plan_quality(catalog, executor.execute(plans))
        print(
            f"{policy_name:>10}  {report.planning_precision:>9.2f}  "
            f"{report.driver_candidates:>10}  {report.total_seconds:>14.3f}"
        )
    print("\nA better cardinality estimator picks the truly most selective predicate more often,")
    print("which shrinks the candidate sets the remaining predicates have to verify.")


if __name__ == "__main__":
    main()
