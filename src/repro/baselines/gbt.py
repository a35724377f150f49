"""Gradient-boosted regression trees (stand-in for TL-XGB / TL-LGBM).

XGBoost and LightGBM are not installable offline, so this module implements
gradient boosting over CART regression trees from scratch:

* squared loss in log space (``log1p`` of the cardinality), matching how the
  paper's competitors are usually tuned for count targets;
* depth-limited regression trees with exact greedy splits over feature
  quantiles (a LightGBM-style histogram of candidate thresholds);
* shrinkage (learning rate) and optional feature subsampling per tree.

Two presets mirror the two paper baselines: ``TL-XGB`` (deeper trees, fewer of
them) and ``TL-LGBM`` (shallower trees, more of them, feature subsampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from ..core.interface import CardinalityEstimator
from ..workloads.examples import QueryExample
from .common import QueryFeaturizer


@dataclass
class _TreeNode:
    """A node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """Depth-limited CART regression tree with quantile candidate splits."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        max_candidate_splits: int = 16,
        feature_fraction: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_candidate_splits = max_candidate_splits
        self.feature_fraction = feature_fraction
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._root: Optional[_TreeNode] = None
        self._flat: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        self._root = self._build(features, targets, depth=0)
        self._flat = self._flatten()
        return self

    def _flatten(self) -> tuple:
        """Array form of the tree (feature -1 marks a leaf) for batch routing."""
        features: List[int] = []
        thresholds: List[float] = []
        lefts: List[int] = []
        rights: List[int] = []
        values: List[float] = []

        def walk(node: _TreeNode) -> int:
            index = len(features)
            features.append(-1 if node.is_leaf else node.feature)
            thresholds.append(node.threshold)
            lefts.append(0)
            rights.append(0)
            values.append(node.value)
            if not node.is_leaf:
                lefts[index] = walk(node.left)
                rights[index] = walk(node.right)
            return index

        walk(self._root)
        return (
            np.asarray(features, dtype=np.int64),
            np.asarray(thresholds, dtype=np.float64),
            np.asarray(lefts, dtype=np.int64),
            np.asarray(rights, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )

    def _best_split(self, features: np.ndarray, targets: np.ndarray, feature_ids: np.ndarray):
        best = None  # (sse, feature, threshold, left_mask)
        total_sse = float(np.sum((targets - targets.mean()) ** 2))
        for feature in feature_ids:
            column = features[:, feature]
            unique = np.unique(column)
            if unique.size < 2:
                continue
            if unique.size > self.max_candidate_splits:
                quantiles = np.linspace(0.0, 1.0, self.max_candidate_splits + 2)[1:-1]
                candidates = np.unique(np.quantile(column, quantiles))
            else:
                candidates = (unique[:-1] + unique[1:]) / 2.0
            for threshold in candidates:
                left_mask = column <= threshold
                left_count = int(left_mask.sum())
                right_count = len(targets) - left_count
                if left_count < self.min_samples_leaf or right_count < self.min_samples_leaf:
                    continue
                left_targets = targets[left_mask]
                right_targets = targets[~left_mask]
                sse = float(
                    np.sum((left_targets - left_targets.mean()) ** 2)
                    + np.sum((right_targets - right_targets.mean()) ** 2)
                )
                if sse < total_sse - 1e-12 and (best is None or sse < best[0]):  # repro: ignore[RPR011] - a split-gain margin
                    best = (sse, int(feature), float(threshold), left_mask)
        return best

    def _build(self, features: np.ndarray, targets: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(targets.mean()) if len(targets) else 0.0)
        if depth >= self.max_depth or len(targets) < 2 * self.min_samples_leaf:
            return node
        num_features = features.shape[1]
        if self.feature_fraction < 1.0:
            count = max(1, int(round(self.feature_fraction * num_features)))
            feature_ids = self.rng.choice(num_features, size=count, replace=False)
        else:
            feature_ids = np.arange(num_features)
        split = self._best_split(features, targets, feature_ids)
        if split is None:
            return node
        _, feature, threshold, left_mask = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(features[left_mask], targets[left_mask], depth + 1)
        node.right = self._build(features[~left_mask], targets[~left_mask], depth + 1)
        return node

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Vectorized routing: all rows descend the flattened tree level by level."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        node_features, node_thresholds, lefts, rights, values = self._flat
        positions = np.zeros(features.shape[0], dtype=np.int64)
        while True:
            split_features = node_features[positions]
            active = np.nonzero(split_features >= 0)[0]
            if active.size == 0:
                break
            rows = positions[active]
            goes_left = (
                features[active, split_features[active]] <= node_thresholds[rows]
            )
            positions[active] = np.where(goes_left, lefts[rows], rights[rows])
        return values[positions]

    def count_nodes(self) -> int:
        def walk(node: Optional[_TreeNode]) -> int:
            if node is None:
                return 0
            return 1 + walk(node.left) + walk(node.right)

        return walk(self._root)


class GradientBoostedTreesEstimator(CardinalityEstimator):
    """Additive ensemble of regression trees trained on log1p(cardinality).

    Note: the paper's TL-XGB/TL-LGBM rows use the libraries' monotone-constraint
    feature; this from-scratch implementation does not enforce the constraint,
    so the estimator is reported as non-monotonic here (the benchmark harness
    measures the violation rate explicitly).
    """

    monotonic = False

    def __init__(
        self,
        featurizer: QueryFeaturizer,
        num_trees: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        feature_fraction: float = 1.0,
        name: str = "TL-XGB",
        seed: int = 0,
    ) -> None:
        self.featurizer = featurizer
        self.num_trees = num_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature_fraction = feature_fraction
        self.name = name
        self.seed = seed
        self._trees: List[RegressionTree] = []
        self._base_prediction = 0.0

    @classmethod
    def xgb_preset(cls, featurizer: QueryFeaturizer, seed: int = 0) -> "GradientBoostedTreesEstimator":
        return cls(featurizer, num_trees=40, learning_rate=0.2, max_depth=4, name="TL-XGB", seed=seed)

    @classmethod
    def lgbm_preset(cls, featurizer: QueryFeaturizer, seed: int = 0) -> "GradientBoostedTreesEstimator":
        return cls(
            featurizer,
            num_trees=60,
            learning_rate=0.15,
            max_depth=3,
            feature_fraction=0.7,
            name="TL-LGBM",
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self, train: Sequence[QueryExample], validation: Sequence[QueryExample] = ()
    ) -> "GradientBoostedTreesEstimator":
        examples = list(train)
        if not examples:
            raise ValueError("gradient boosting needs at least one training example")
        features = self.featurizer.matrix(examples)
        targets = np.log1p(self.featurizer.targets(examples))
        rng = np.random.default_rng(self.seed)

        self._base_prediction = float(targets.mean())
        predictions = np.full(len(targets), self._base_prediction)
        self._trees = []
        for _ in range(self.num_trees):
            residuals = targets - predictions
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                feature_fraction=self.feature_fraction,
                rng=rng,
            ).fit(features, residuals)
            step = tree.predict(features)
            predictions = predictions + self.learning_rate * step
            self._trees.append(tree)
        return self

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def _predict_log(self, features: np.ndarray) -> np.ndarray:
        predictions = np.full(features.shape[0], self._base_prediction)
        for tree in self._trees:
            predictions = predictions + self.learning_rate * tree.predict(features)
        return predictions

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        records = list(records)
        if not records:
            return np.zeros(0)
        features = self.featurizer.matrix_from(records, thetas)
        return np.maximum(np.expm1(self._predict_log(features)), 0.0)

    def size_in_bytes(self) -> int:
        # Each node stores (feature id, threshold, value, two child pointers).
        return sum(tree.count_nodes() for tree in self._trees) * 5 * 8
