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
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.interface import CardinalityEstimator
from ..serving import EstimationService, resolve_curve_grid


class MergedShardEstimator(CardinalityEstimator):
    """Full-dataset estimates as the sum of per-shard estimates.

    Registered as the merged endpoint of a :class:`ShardedEstimatorGroup`;
    when the service asks it for curves it asks every shard estimator for
    its curves on the group's grid and sums them in shard order — the same
    curves, in the same order, that the shard endpoints serve.  Monotonicity
    survives by construction: a sum of monotone non-decreasing curves is
    monotone non-decreasing.
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
        total = np.zeros((len(records), len(self._grid)), dtype=np.float64)
        for estimator in self._shard_estimators:
            total += estimator.estimate_curve_many(records, self._grid)
        return total

    def __snapshot_state__(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    def __snapshot_restore__(self, state: Dict[str, Any]) -> None:
        # Older format-8 snapshots also hold the service and shard endpoint
        # names; a service reference here would make the engine cyclic garbage.
        state.pop("_service", None)
        state.pop("_shard_endpoints", None)
        self.__dict__.update(state)

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
