"""Sharded serving: the merged estimator summing per-shard curves.

The paper's headline property — monotone cardinality curves — composes under
horizontal partitioning: each shard's estimator serves a monotone curve over
the *same* threshold grid, and the full-dataset estimate is their elementwise
sum, which is again monotone.  A sharded attribute of
:class:`~repro.engine.SimilarityQueryEngine` registers every shard estimator
as its own endpoint (``name#shardK``), so a shard-local update invalidates
and recomputes only that shard's curves, and under the bare ``name`` a
:class:`MergedShardEstimator`: its curves are the sums, in shard order, of
the shard estimators' curves on the shared grid, computed in the merged
request's one micro-batch, so a planner's request is one service request and
one cached curve per record.

Within that request the shard CardNets that share one configuration and one
extractor state run as one model pass: each record is featurized once and
:meth:`~repro.core.CardNet.stacked` evaluates every such shard's CardNet over
parameters with a leading shard axis, in the same inference kernel one model
uses.  Shard parameters are views of the merged estimator's stack, so an
optimizer's in-place step lands in it; a rebound ``.data``
(``load_state_dict``, snapshot restore) is re-stacked on the next pass.  Any
other shard answers through its own ``estimate_curve_many``.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.cardnet import CardNet
from ..core.estimator import CardNetEstimator
from ..core.interface import CardinalityEstimator


def _same_state(a: Any, b: Any) -> bool:
    """Equal type and equal values, arrays and instance attributes included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_state, a, b))
    if hasattr(a, "__dict__"):
        return _same_state(vars(a), vars(b))
    return bool(a == b)


def _stackable(first: CardNetEstimator, other: CardNetEstimator) -> bool:
    """One architecture (configs equal up to the seed, which only initialises
    weights) and one extractor state, so one featurization serves both."""
    return replace(other.model.config, seed=0) == replace(
        first.model.config, seed=0
    ) and _same_state(other.extractor, first.extractor)


class _ShardStack:
    """The shards one stacked CardNet pass answers.

    Members are the :class:`CardNetEstimator` shards stackable with the first
    CardNet shard, in shard order.  Their parameters' ``.data`` are rebound to
    slices of the stacked clone's arrays; before each pass an identity check
    finds any ``.data`` (or model) rebound since, and the whole stack is
    rebuilt.
    """

    def __init__(self, estimators: Sequence[CardinalityEstimator]) -> None:
        cardnets = [e for e in estimators if isinstance(e, CardNetEstimator)]
        #: Shard index of each row of the stacked curves.
        self.indices = [
            index
            for index, estimator in enumerate(estimators)
            if isinstance(estimator, CardNetEstimator) and _stackable(cardnets[0], estimator)
        ]
        self.members: List[CardNetEstimator] = [estimators[index] for index in self.indices]
        #: The first member over the stacked model, so its own
        #: ``estimate_curve_many`` featurizes once and returns
        #: (members, records, grid) curves.
        self.estimator: Optional[CardNetEstimator] = None
        self._models: List[CardNet] = []
        self._views: List[tuple] = []
        if self.members:
            self._restack()

    def _current(self) -> bool:
        """Every member still holds the stacked model and its parameter views."""
        return all(
            member.model is model for member, model in zip(self.members, self._models)
        ) and all(param.data is view for param, view in self._views)

    def _restack(self) -> None:
        self._models = [member.model for member in self.members]
        self.estimator = copy.copy(self.members[0])
        self.estimator.model = CardNet.stacked(self._models)
        self._views = []
        for row, model in enumerate(self._models):
            for stacked, param in zip(self.estimator.model.parameters(), model.parameters()):
                param.data = stacked.data[row].reshape(param.data.shape)
                self._views.append((param, param.data))

    def curves(self, records: List[Any], grid: np.ndarray) -> Dict[int, np.ndarray]:
        """Shard index → its (records, grid) curves: one featurization, one
        model pass for every member."""
        if not self.members:
            return {}
        if not self._current():
            self._restack()
        return dict(zip(self.indices, self.estimator.estimate_curve_many(records, grid)))


class MergedShardEstimator(CardinalityEstimator):
    """Full-dataset estimates as the sum of per-shard estimates.

    Registered as the merged endpoint of a sharded attribute; when the
    service asks it for curves it computes every shard's curves on the
    attribute's grid — the stackable CardNet shards in one stacked pass, the
    rest through their own ``estimate_curve_many`` — and sums them in shard
    order: the same curves, in the same order, that the shard endpoints
    serve.  Monotonicity survives by construction: a sum of monotone
    non-decreasing curves is monotone non-decreasing.

    The shards are sorted into stacked and other, and stacked, at
    construction.  The stack is not persisted (``__snapshot_state__`` drops
    it); a restored estimator builds it on its first pass.  Stacking right
    after the shards are built lets the stack reuse memory their training
    freed.
    """

    name = "ShardSum"

    def __init__(
        self,
        shard_estimators: Sequence[CardinalityEstimator],
        grid: np.ndarray,
    ) -> None:
        self._shard_estimators = list(shard_estimators)
        self._grid = np.asarray(grid, dtype=np.float64)
        self.monotonic = all(estimator.monotonic for estimator in shard_estimators)
        self._stack: Optional[_ShardStack] = _ShardStack(self._shard_estimators)

    def estimate_batch(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """Direct (service-free) sum of shard estimates; the serving hot path
        goes through :meth:`estimate_curve_many` instead."""
        records = list(records)
        if not records:
            return np.zeros(0)
        total = np.zeros(len(records), dtype=np.float64)
        for estimator in self._shard_estimators:
            total += np.asarray(estimator.estimate_batch(records, thetas), dtype=np.float64)
        return total

    def estimate_curve_many(
        self,
        records: Sequence[Any],
        thetas: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        if thetas is not None and not np.array_equal(
            np.asarray(thetas, dtype=np.float64), self._grid
        ):
            raise ValueError(
                "a merged shard endpoint serves curves only on its shards' "
                "shared grid; re-register the attribute with the desired grid"
            )
        records = list(records)
        if not records:
            return np.zeros((0, len(self._grid)))
        if self._stack is None:
            self._stack = _ShardStack(self._shard_estimators)
        stacked = self._stack.curves(records, self._grid)
        total = np.zeros((len(records), len(self._grid)), dtype=np.float64)
        for index, estimator in enumerate(self._shard_estimators):
            curves = stacked.get(index)
            if curves is None:
                curves = estimator.estimate_curve_many(records, self._grid)
            total += curves
        return total

    def __snapshot_state__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_stack")
        return state

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._stack = None

    def curve_thetas(self) -> Optional[np.ndarray]:
        return self._grid.copy()

    def curve_indices(self, thetas: Sequence[float], grid: np.ndarray) -> np.ndarray:
        # Delegate to a shard estimator so θ → column quantization matches the
        # per-shard endpoints exactly (shards are homogeneous by construction).
        return self._shard_estimators[0].curve_indices(thetas, grid)

    def size_in_bytes(self) -> int:
        return int(sum(estimator.size_in_bytes() for estimator in self._shard_estimators))
