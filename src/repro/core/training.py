"""Training pipeline for CardNet: data preparation, joint loss, dynamic training.

The pipeline follows paper §6:

1. the workload's queries are featurized once (binary vectors + integer τ);
2. per-query *cumulative* cardinality curves over τ are assembled from the
   labelled thresholds, and consecutive points define the *incremental*
   (per-distance-segment) targets used by the dynamic loss term;
3. the VAE is pre-trained unsupervised, then the whole model is trained on the
   joint objective of Eq. 2/3 with per-distance weights updated after every
   validation pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..featurization.base import FeatureExtractor
from ..nn import Tensor, weighted_msle
from ..workloads.examples import QueryExample
from .cardnet import CardNet
from .loss import DynamicLossWeights, empirical_tau_distribution


@dataclass
class FeaturizedSplit:
    """A featurized workload split: unique query features + flattened rows.

    The rows are stored as one array per field.  Row ``r`` is the labelled
    point (query ``query_index[r]``, threshold ``tau[r]``) with cardinality
    ``cumulative[r]``; ``segment_low[r]`` is the previous labelled τ of the
    same query (or -1), so ``segment_target[r]`` is the cardinality increment
    over ``(segment_low, tau]`` — exactly what the per-distance decoders in
    that range must add up to.
    """

    features: np.ndarray                      # (num_queries, d)
    query_index: np.ndarray                   # (num_rows,) int64, row of ``features``
    tau: np.ndarray                           # (num_rows,) int64
    cumulative: np.ndarray                    # (num_rows,) float64
    segment_low: np.ndarray                   # (num_rows,) int64
    segment_target: np.ndarray                # (num_rows,) float64

    def __len__(self) -> int:
        return len(self.tau)


def featurize_examples(
    examples: Sequence[QueryExample], extractor: FeatureExtractor
) -> FeaturizedSplit:
    """Group examples by query record, featurize once, and emit flattened rows."""
    # Group by query identity.  Records may be unhashable (numpy arrays), so a
    # canonical key is derived per data type.
    def record_key(record) -> object:
        if isinstance(record, np.ndarray):
            return record.tobytes()
        if isinstance(record, (set, frozenset)):
            return frozenset(record)
        return record

    # One θ → τ call for the whole workload; groups hold (τ, cardinality) pairs.
    taus = extractor.transform_thresholds([example.theta for example in examples])
    grouped: Dict[object, Tuple[object, List[Tuple[int, float]]]] = {}
    for example, tau in zip(examples, taus.tolist()):
        key = record_key(example.record)
        if key not in grouped:
            grouped[key] = (example.record, [])
        grouped[key][1].append((tau, float(example.cardinality)))

    features = extractor.transform_records([entry[0] for entry in grouped.values()])

    # (query_index, tau, cumulative, segment_low, segment_target) per row.
    rows: List[Tuple[int, int, float, int, float]] = []
    for query_index, (_, group) in enumerate(grouped.values()):
        # Cumulative cardinality per transformed threshold (max over aliased θ).
        by_tau: Dict[int, float] = {}
        for tau, cardinality in group:
            by_tau[tau] = max(by_tau.get(tau, 0.0), cardinality)
        previous_tau = -1
        previous_cumulative = 0.0
        for tau in sorted(by_tau):
            cumulative = by_tau[tau]
            rows.append(
                (
                    query_index,
                    tau,
                    cumulative,
                    previous_tau,
                    max(cumulative - previous_cumulative, 0.0),
                )
            )
            previous_tau = tau
            previous_cumulative = cumulative
    # One float64 table: the integer fields (indices, τ values) are exact in it.
    table = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    return FeaturizedSplit(
        features=features,
        query_index=table[:, 0].astype(np.int64),
        tau=table[:, 1].astype(np.int64),
        cumulative=table[:, 2].copy(),
        segment_low=table[:, 3].astype(np.int64),
        segment_target=table[:, 4].copy(),
    )


def _segment_mask(segment_low: np.ndarray, taus: np.ndarray, tau_max: int) -> np.ndarray:
    """Mask selecting the decoders in (segment_low, tau] for each row."""
    decoders = np.arange(tau_max + 1)
    selected = (decoders > segment_low[:, None]) & (decoders <= taus[:, None])
    return selected.astype(np.float64)


def _cumulative_mask(taus: np.ndarray, tau_max: int) -> np.ndarray:
    """Mask selecting the decoders in [0, tau] for each row."""
    return _segment_mask(np.full_like(taus, -1), taus, tau_max)


@dataclass
class TrainingResult:
    """Summary of a training run (history + timing), used by benchmarks."""

    epochs_run: int
    train_losses: List[float]
    validation_losses: List[float]
    per_distance_validation_losses: List[np.ndarray]
    training_seconds: float
    vae_pretrain_losses: List[float] = field(default_factory=list)


class CardNetTrainer:
    """Trains a :class:`CardNet` on a featurized workload with dynamic loss weights."""

    def __init__(
        self,
        model: CardNet,
        extractor: FeatureExtractor,
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        vae_pretrain_epochs: int = 10,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.extractor = extractor
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.vae_pretrain_epochs = vae_pretrain_epochs
        self.seed = seed
        self.dynamic_weights = DynamicLossWeights(model.tau_max)
        self._optimizer: Optional[nn.Adam] = None

    # ------------------------------------------------------------------ #
    # Loss computation
    # ------------------------------------------------------------------ #
    def _batch_loss(
        self,
        split: FeaturizedSplit,
        batch: np.ndarray,
        tau_probabilities: np.ndarray,
    ) -> Tensor:
        """The joint objective (Eq. 2/3) on the rows of ``split`` that ``batch`` indexes."""
        tau_max = self.model.tau_max
        taus = split.tau[batch]
        features = Tensor(split.features[split.query_index[batch]])
        per_distance, vae_loss = self.model.training_outputs(features)

        cumulative_mask = Tensor(_cumulative_mask(taus, tau_max))
        segment_mask = Tensor(_segment_mask(split.segment_low[batch], taus, tau_max))
        cumulative_estimate = (per_distance * cumulative_mask).sum(axis=1)
        segment_estimate = (per_distance * segment_mask).sum(axis=1)

        # Row weights realize E_{τ~P}[·]; normalized so the loss scale is stable.
        row_weights = tau_probabilities[taus]
        if row_weights.sum() <= 0:
            row_weights = np.ones(len(batch))

        total_loss = weighted_msle(
            cumulative_estimate, Tensor(split.cumulative[batch]), row_weights
        )
        dynamic_term = weighted_msle(
            segment_estimate,
            Tensor(split.segment_target[batch]),
            self.dynamic_weights.weights[taus],
        )
        loss = total_loss + self.model.config.dynamic_loss_weight * dynamic_term
        loss = loss + self.model.config.vae_loss_weight * vae_loss
        return loss

    def _validation_losses(self, split: FeaturizedSplit) -> Tuple[float, np.ndarray]:
        """Overall validation MSLE and the per-distance (per-τ-bucket) MSLE vector."""
        num_buckets = self.model.tau_max + 1
        if not len(split):
            return 0.0, np.zeros(num_buckets)
        curves = self.model.estimate_curve(split.features)
        estimates = curves[split.query_index, split.tau]
        squared = (
            np.log1p(np.maximum(split.cumulative, 0.0)) - np.log1p(np.maximum(estimates, 0.0))
        ) ** 2
        counts = np.bincount(split.tau, minlength=num_buckets)
        sums = np.bincount(split.tau, weights=squared, minlength=num_buckets)
        return float(squared.mean()), sums / np.maximum(counts, 1)

    # ------------------------------------------------------------------ #
    # Training loops
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_examples: Sequence[QueryExample],
        validation_examples: Sequence[QueryExample],
        epochs: int = 30,
        pretrain_vae: bool = True,
        patience: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingResult:
        """Full training: optional VAE pre-training, then joint dynamic training."""
        start_time = time.perf_counter()
        train_split = featurize_examples(train_examples, self.extractor)
        validation_split = featurize_examples(validation_examples, self.extractor)

        vae_history: List[float] = []
        if pretrain_vae and len(train_split.features):
            from .vae import pretrain_vae as run_pretrain

            vae_history = run_pretrain(
                self.model.vae,
                train_split.features,
                epochs=self.vae_pretrain_epochs,
                batch_size=self.batch_size,
                learning_rate=self.learning_rate,
                seed=self.seed,
            )

        result = self._train_regression(
            train_split, validation_split, epochs=epochs, patience=patience, verbose=verbose
        )
        result.vae_pretrain_losses = vae_history
        result.training_seconds = time.perf_counter() - start_time
        return result

    def _train_regression(
        self,
        train_split: FeaturizedSplit,
        validation_split: FeaturizedSplit,
        epochs: int,
        patience: Optional[int],
        verbose: bool,
    ) -> TrainingResult:
        best_validation = np.inf
        epochs_without_improvement = 0

        def out_of_patience(overall: float) -> bool:
            nonlocal best_validation, epochs_without_improvement
            if overall < best_validation - 1e-6:
                best_validation = overall
                epochs_without_improvement = 0
                return False
            epochs_without_improvement += 1
            return patience is not None and epochs_without_improvement >= patience

        return self._run_epochs(
            train_split,
            validation_split,
            np.random.default_rng(self.seed),
            epochs,
            out_of_patience,
            verbose=verbose,
        )

    def _run_epochs(
        self,
        train_split: FeaturizedSplit,
        validation_split: FeaturizedSplit,
        rng: np.random.Generator,
        max_epochs: int,
        should_stop: Callable[[float], bool],
        verbose: bool = False,
    ) -> TrainingResult:
        """The epoch loop: shuffled mini-batch steps, a validation pass, the
        dynamic-weight update, then ``should_stop(validation MSLE)``."""
        if self._optimizer is None:
            self._optimizer = nn.Adam(self.model.parameters(), lr=self.learning_rate)
        optimizer = self._optimizer
        tau_probabilities = empirical_tau_distribution(
            validation_split.tau if len(validation_split) else train_split.tau,
            self.model.tau_max,
        )

        train_losses: List[float] = []
        validation_losses: List[float] = []
        per_distance_history: List[np.ndarray] = []
        epochs_run = 0

        self.model.train()
        for epoch in range(max_epochs):
            epochs_run = epoch + 1
            order = rng.permutation(len(train_split))
            epoch_losses: List[float] = []
            for start in range(0, len(order), self.batch_size):
                optimizer.zero_grad()
                loss = self._batch_loss(
                    train_split, order[start : start + self.batch_size], tau_probabilities
                )
                loss.backward()
                optimizer.clip_grad_norm(10.0)
                optimizer.step()
                epoch_losses.append(loss.item())
            train_losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)

            self.model.eval()
            overall, per_distance = self._validation_losses(validation_split)
            self.model.train()
            validation_losses.append(overall)
            per_distance_history.append(per_distance)
            self.dynamic_weights.update(per_distance)

            if verbose:  # pragma: no cover - console aid
                print(f"epoch {epoch + 1}: train={train_losses[-1]:.4f} valid={overall:.4f}")
            if should_stop(overall):
                break

        self.model.eval()
        return TrainingResult(
            epochs_run=epochs_run,
            train_losses=train_losses,
            validation_losses=validation_losses,
            per_distance_validation_losses=per_distance_history,
            training_seconds=0.0,
        )

    # ------------------------------------------------------------------ #
    # Incremental learning (paper §8)
    # ------------------------------------------------------------------ #
    def incremental_fit(
        self,
        train_examples: Sequence[QueryExample],
        validation_examples: Sequence[QueryExample],
        max_epochs: int = 20,
        stable_epochs: int = 3,
    ) -> TrainingResult:
        """Continue training from the current parameters until the validation
        error is stable for ``stable_epochs`` consecutive epochs (paper §8).

        The optimizer state is preserved across calls, the full (re-labelled)
        training data is used to avoid catastrophic forgetting, and the VAE is
        not re-pre-trained.
        """
        start_time = time.perf_counter()
        train_split = featurize_examples(train_examples, self.extractor)
        validation_split = featurize_examples(validation_examples, self.extractor)

        previous_validation: Optional[float] = None
        stable_count = 0

        def stable(overall: float) -> bool:
            nonlocal previous_validation, stable_count
            if previous_validation is not None and abs(overall - previous_validation) < 1e-3:
                stable_count += 1
                if stable_count >= stable_epochs:
                    return True
            else:
                stable_count = 0
            previous_validation = overall
            return False

        result = self._run_epochs(
            train_split,
            validation_split,
            np.random.default_rng(self.seed + 17),
            max_epochs,
            stable,
        )
        result.training_seconds = time.perf_counter() - start_time
        return result
