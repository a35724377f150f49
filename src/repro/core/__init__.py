"""CardNet: the paper's primary contribution (models, training, incremental learning)."""

from .cardnet import CardNet, CardNetConfig
from .decoders import PerDistanceDecoders
from .encoder import AcceleratedEncoder, DistanceEmbedding, SharedEncoder
from .estimator import CardNetEstimator
from .incremental import IncrementalUpdateManager, RevalidationReport, UpdateStepReport
from .interface import CardinalityEstimator
from ..nn import weighted_msle
from .loss import DynamicLossWeights, empirical_tau_distribution
from .training import (
    CardNetTrainer,
    FeaturizedSplit,
    TrainingResult,
    featurize_examples,
)
from .vae import VariationalAutoEncoder, pretrain_vae

__all__ = [
    "CardNet",
    "CardNetConfig",
    "CardNetEstimator",
    "CardinalityEstimator",
    "CardNetTrainer",
    "TrainingResult",
    "FeaturizedSplit",
    "featurize_examples",
    "VariationalAutoEncoder",
    "pretrain_vae",
    "DistanceEmbedding",
    "SharedEncoder",
    "AcceleratedEncoder",
    "PerDistanceDecoders",
    "DynamicLossWeights",
    "weighted_msle",
    "empirical_tau_distribution",
    "IncrementalUpdateManager",
    "UpdateStepReport",
    "RevalidationReport",
]
