"""High-level CardNet estimator: feature extraction + regression + training glue.

This is the library's primary public entry point.  Given a dataset it builds
the appropriate feature extraction (paper §4 case study), constructs the
CardNet or CardNet-A regression model (§5/§7), and trains it with the dynamic
strategy (§6).  After fitting, :meth:`estimate` answers queries in original
(record, θ) space, with monotonicity in θ guaranteed by construction.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..datasets.synthetic import Dataset
from ..featurization import build_feature_extractor
from ..featurization.base import FeatureExtractor
from ..nn import serialized_size
from ..workloads.examples import QueryExample
from .cardnet import CardNet, CardNetConfig
from .interface import CardinalityEstimator
from .training import CardNetTrainer, TrainingResult


class CardNetEstimator(CardinalityEstimator):
    """CardNet (or CardNet-A when ``accelerated=True``) behind the uniform API."""

    monotonic = True

    def __init__(
        self,
        extractor: FeatureExtractor,
        config: Optional[CardNetConfig] = None,
        accelerated: bool = False,
        epochs: int = 30,
        vae_pretrain_epochs: int = 10,
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        patience: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.extractor = extractor
        config = config or CardNetConfig(tau_max=extractor.tau_max)
        config.tau_max = extractor.tau_max
        config.accelerated = accelerated
        config.seed = seed
        self.config = config
        self.model = CardNet(input_dimension=extractor.dimension, config=config)
        self.trainer = CardNetTrainer(
            self.model,
            extractor,
            learning_rate=learning_rate,
            batch_size=batch_size,
            vae_pretrain_epochs=vae_pretrain_epochs,
            seed=seed,
        )
        self.epochs = epochs
        self.patience = patience
        self.name = "CardNet-A" if accelerated else "CardNet"
        self.last_training_result: Optional[TrainingResult] = None
        self._canonical_grid: Optional[np.ndarray] = None
        self._canonical_grid_computed = False
        self._grid_taus: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        accelerated: bool = False,
        tau_max: Optional[int] = None,
        config: Optional[CardNetConfig] = None,
        seed: int = 0,
        **training_options,
    ) -> "CardNetEstimator":
        """Build an estimator whose featurization matches the dataset's distance."""
        extractor = build_feature_extractor(dataset, tau_max=tau_max, seed=seed)
        return cls(extractor, config=config, accelerated=accelerated, seed=seed, **training_options)

    # ------------------------------------------------------------------ #
    # Training / estimation
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train: Sequence[QueryExample],
        validation: Sequence[QueryExample] = (),
    ) -> "CardNetEstimator":
        self.last_training_result = self.trainer.fit(
            train, validation, epochs=self.epochs, patience=self.patience
        )
        return self

    def incremental_fit(
        self,
        train: Sequence[QueryExample],
        validation: Sequence[QueryExample] = (),
        max_epochs: int = 20,
    ) -> TrainingResult:
        """Incremental learning after dataset updates (paper §8)."""
        result = self.trainer.incremental_fit(train, validation, max_epochs=max_epochs)
        self.last_training_result = result
        return result

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """Primary batch path: one featurization pass + one model forward."""
        records = list(records)
        if not records:
            return np.zeros(0)
        features = self.extractor.transform_records(records)
        taus = self.extractor.transform_thresholds(thetas)
        return self.model.estimate(features, taus)

    def estimate_curve_many(
        self,
        records: Sequence[Any],
        thetas: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Monotone curves for many records in a single model pass.

        With the default grid the columns are the model's native τ = 0..τ_max
        curve; an explicit ``thetas`` grid is answered by indexing that curve
        through the monotone θ → τ map (no extra forward passes).  Over a
        :meth:`CardNet.stacked` model the curves gain a leading shard axis.
        """
        records = list(records)
        if not records:
            return np.zeros((0, self.model.tau_max + 1 if thetas is None else len(thetas)))
        features = self.extractor.transform_records(records)
        curves = self.model.estimate_curve(features)
        if thetas is None or self._is_canonical_grid(thetas):
            # Native τ-indexed curve: `curve_index` maps θ onto it exactly,
            # even for extractors whose θ → τ map is not grid-position == τ
            # (e.g. identity maps configured with tau_max > theta_max).
            return curves
        return curves[..., self._grid_columns(thetas)]

    def estimate_curve(self, record: Any) -> np.ndarray:
        """Monotone estimates for every τ = 0..τ_max (one call, used by GPH)."""
        return self.estimate_curve_many([record])[0]

    def curve_thetas(self) -> Optional[np.ndarray]:
        """One representative θ per decoder: the native grid served from curves.

        Only returned when the grid genuinely inverts the extractor's θ → τ
        map (``transform_thresholds(grid) == arange``), so that column ``j``
        of a native curve IS the estimate at ``grid[j]``.  Extractors whose
        map cannot be inverted on a uniform grid (nonlinear Euclidean maps,
        identity maps with ``tau_max > theta_max``) report no canonical grid
        and must be served through an explicit grid instead.
        """
        if not self._canonical_grid_computed:
            self._canonical_grid = self._compute_canonical_grid()
            self._canonical_grid_computed = True
        return self._canonical_grid

    def _compute_canonical_grid(self) -> Optional[np.ndarray]:
        tau_max = self.model.tau_max
        if tau_max <= 0:
            return None
        grid = np.arange(tau_max + 1, dtype=np.float64) * (self.extractor.theta_max / tau_max)
        try:
            taus = np.asarray(self.extractor.transform_thresholds(grid))
        except ValueError:
            return None
        if not np.array_equal(taus, np.arange(tau_max + 1)):
            return None
        return grid

    def _grid_columns(self, thetas) -> np.ndarray:
        """The θ → τ columns of an explicit grid, mapped once and reused while
        the same grid is served (a served endpoint asks on one grid)."""
        grid = np.asarray(thetas, dtype=np.float64)
        # Absent from snapshots written before the memo existed.
        memo = getattr(self, "_grid_taus", None)
        if memo is None or not np.array_equal(memo[0], grid):
            memo = self._grid_taus = (grid.copy(), self.extractor.transform_thresholds(grid))
        return memo[1]

    def _is_canonical_grid(self, thetas) -> bool:
        canonical = self.curve_thetas()
        if canonical is None:
            return False
        return len(thetas) == len(canonical) and np.array_equal(
            np.asarray(thetas, dtype=np.float64), canonical
        )

    def curve_indices(self, thetas: Sequence[float], grid: np.ndarray) -> np.ndarray:
        """Native curve columns answer θ exactly through the θ → τ map —
        one grid comparison and one vectorized transform for the whole batch.

        Consistent with :meth:`estimate_curve_many`, which returns the native
        τ-indexed curve whenever the canonical grid is requested."""
        if self._is_canonical_grid(grid):
            return np.asarray(self.extractor.transform_thresholds(thetas), dtype=np.int64)
        return super().curve_indices(thetas, grid)

    def validation_msle(self, examples: Sequence[QueryExample]) -> float:
        """MSLE of the current model on labelled examples (update monitoring, §8)."""
        from ..metrics import msle

        if not examples:
            return 0.0
        estimates = self.estimate_many(examples)
        actual = np.asarray([example.cardinality for example in examples], dtype=np.float64)
        return msle(actual, estimates)

    def size_in_bytes(self) -> int:
        return serialized_size(self.model)
