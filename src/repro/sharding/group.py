"""Sharded serving: one endpoint per shard, one merged endpoint summing them.

The paper's headline property — monotone cardinality curves — composes under
horizontal partitioning: each shard's estimator serves a monotone curve over
the *same* threshold grid, and the full-dataset estimate is their elementwise
sum, which is again monotone.  :class:`ShardedEstimatorGroup` materializes
that argument in the serving layer:

* every shard estimator registers as its own endpoint (``name#shardK``) with
  its own micro-batching and curve cache, so a shard-local update invalidates
  and recomputes only that shard's curves;
* a *merged* endpoint under the bare ``name`` is registered alongside, backed
  by :class:`MergedShardEstimator` — its curves are the sums, in shard order,
  of the shard estimators' curves on the shared grid, computed in the merged
  request's one micro-batch, so a planner's request is one service request
  and one cached curve per record.

Within that request the shard CardNets that share one configuration and one
extractor state run as one model pass: each record is featurized once and
:meth:`~repro.core.CardNet.stacked` evaluates every such shard's CardNet over
parameters with a leading shard axis, in the same inference kernel one model
uses.  Shard parameters are views of the group's stack, so an optimizer's
in-place step lands in it; a rebound ``.data`` (``load_state_dict``,
snapshot restore) is re-stacked on the next pass.  Any other
shard answers through its own ``estimate_curve_many``.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.cardnet import CardNet
from ..core.estimator import CardNetEstimator
from ..core.interface import CardinalityEstimator
from ..serving import EstimationService, resolve_curve_grid


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
    """The shards of a group one stacked CardNet pass answers.

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

    Registered as the merged endpoint of a :class:`ShardedEstimatorGroup`;
    when the service asks it for curves it computes every shard's curves on
    the group's grid — the stackable CardNet shards in one stacked pass, the
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
                "a merged shard endpoint serves curves only on the group's "
                "shared grid; re-register the group with the desired grid"
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


class ShardedEstimatorGroup:
    """Registers per-shard endpoints (``name#shardK``) plus the merged one."""

    def __init__(
        self,
        name: str,
        service: EstimationService,
        estimators: Sequence[CardinalityEstimator],
        curve_thetas: Optional[Sequence[float]] = None,
        theta_max: Optional[float] = None,
        distance_name: str = "",
    ) -> None:
        estimators = list(estimators)
        if not estimators:
            raise ValueError("a sharded group needs at least one shard estimator")
        self.name = name
        self.service = service
        self.estimators = estimators
        #: The one grid every shard endpoint serves curves on: per-shard
        #: curves only sum meaningfully on a shared grid.
        self.curve_thetas, _ = resolve_curve_grid(
            estimators, curve_thetas, theta_max, distance_name
        )
        self.shard_endpoints: List[str] = self.endpoints_for(name, len(estimators))[:-1]
        self.merged = MergedShardEstimator(estimators, self.curve_thetas)
        endpoints = [
            (
                endpoint,
                estimator,
                {
                    "curve_thetas": self.curve_thetas,
                    "distance_name": distance_name,
                    "metadata": {"shard_of": name, "shard_index": shard_index},
                },
            )
            for shard_index, (endpoint, estimator) in enumerate(
                zip(self.shard_endpoints, estimators)
            )
        ]
        merged_options = {
            "distance_name": distance_name,
            "metadata": {"sharded": True, "num_shards": len(estimators)},
        }
        # All-or-nothing: a name collision partway through (e.g. the merged
        # name is already taken) must not leak half the endpoints.
        service.register_all([*endpoints, (name, self.merged, merged_options)])

    @staticmethod
    def endpoints_for(name: str, num_shards: int) -> List[str]:
        """Every endpoint a group of ``num_shards`` registers under ``name``:
        one per shard, then the merged one."""
        return [*(f"{name}#shard{shard_index}" for shard_index in range(num_shards)), name]

    # ------------------------------------------------------------------ #
    # Serving façade (everything flows through the merged endpoint)
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shard_endpoints)

    def estimate_many(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        return self.service.estimate_many(self.name, records, thetas)

    def estimate(self, record: Any, theta: float) -> float:
        return self.service.estimate(self.name, record, theta)

    def estimate_curve(self, record: Any) -> np.ndarray:
        return self.service.estimate_curve(self.name, record)

    def estimate_curve_many(self, records: Sequence[Any]) -> np.ndarray:
        return self.service.estimate_curve_many(self.name, records)

    def shard_estimates(self, records: Sequence[Any], thetas: Sequence[float]) -> np.ndarray:
        """Per-shard served estimates, shape ``(num_shards, n)`` (introspection)."""
        return np.stack(
            [
                self.service.estimate_many(endpoint, records, thetas)
                for endpoint in self.shard_endpoints
            ]
        )

    # ------------------------------------------------------------------ #
    # Cache coherence
    # ------------------------------------------------------------------ #
    def invalidate_shard(self, shard_index: int) -> int:
        """Drop one shard's cached curves — and the merged endpoint's, which
        are sums over every shard and therefore stale whenever any shard moves."""
        dropped = self.service.invalidate(self.shard_endpoints[shard_index])
        dropped += self.service.invalidate(self.name)
        return dropped

    def invalidate(self) -> int:
        dropped = sum(
            self.service.invalidate(endpoint) for endpoint in self.shard_endpoints
        )
        return dropped + self.service.invalidate(self.name)

    def unregister(self) -> None:
        for endpoint in self.endpoints_for(self.name, self.num_shards):
            self.service.unregister(endpoint)

    def stats(self) -> Dict[str, Any]:
        snapshot = self.service.telemetry.snapshot()
        return {
            "merged": snapshot.get(self.name, {}),
            "shards": {
                endpoint: snapshot.get(endpoint, {}) for endpoint in self.shard_endpoints
            },
        }
