"""Query-optimizer case studies driven by cardinality estimation (paper §9.11).

Planning and execution live in :mod:`repro.engine`.  This package holds the
GPH threshold-allocation DP the engine's planner calls (:mod:`.gph`, with the
per-part policies Figure 13 compares) and the conjunctive case study's
workload, direct estimate source and plan-quality report (:mod:`.conjunctive`).
"""

from .conjunctive import (
    DirectEstimates,
    PlanQualityReport,
    generate_conjunctive_queries,
    plan_quality,
    relation_catalog,
)
from .gph import (
    ExactPartCardinalities,
    GPHPlan,
    GPHQueryProcessor,
    MeanPartCardinalities,
    ModelPartCardinalities,
    PartCardinalityEstimator,
)

__all__ = [
    "PartCardinalityEstimator",
    "ExactPartCardinalities",
    "MeanPartCardinalities",
    "ModelPartCardinalities",
    "GPHQueryProcessor",
    "GPHPlan",
    "generate_conjunctive_queries",
    "relation_catalog",
    "DirectEstimates",
    "PlanQualityReport",
    "plan_quality",
]
