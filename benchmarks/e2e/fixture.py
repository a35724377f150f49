"""Set-up: the program state each workload runs against.

One call to :func:`build` is one timed set-up — relation generation, index
build, labelling, CardNet-A training and registration — and is what
``setup_s`` measures.  Only public constructors and registration calls of
``repro`` are used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.datasets.synthetic import Dataset
from repro.engine import SimilarityQueryEngine
from repro.selection import PigeonholeHammingSelector, SimilaritySelector, default_selector
from repro.serving import EstimationService
from repro.workloads.builder import label_queries
from repro.workloads.examples import QueryExample

from benchmarks.e2e import workloads as wl

#: Epoch cap of one §8 incremental retrain; keeps a retrain a spike, not a stall.
MAX_EPOCHS_PER_UPDATE = 2
VALIDATION_SHARE = 0.2
#: Window q-error above which the engine flushes an endpoint's curves.  The
#: relation is stationary (updates move 16 of 5,000 rows), so the threshold
#: sits above what these briefly trained estimators score on it: a repair
#: here would be a false alarm that empties the cache the workload is about.
DRIFT_THRESHOLD = 64.0


@dataclass
class Fixture:
    columns: wl.Columns
    service: EstimationService
    engine: Optional[SimilarityQueryEngine] = None
    #: Exact selectors for the attributes the engine does not hold
    #: (``estimate_unique`` has no engine); the q-error oracle reads these.
    selectors: Dict[str, SimilaritySelector] = field(default_factory=dict)

    def selector(self, attribute: str) -> SimilaritySelector:
        if self.engine is not None:
            return self.engine.catalog.get(attribute).selector
        return self.selectors[attribute]

    def close(self) -> None:
        if self.engine is not None:
            self.engine.runtime.shutdown()


Trained = Tuple[CardNetEstimator, List[QueryExample], List[QueryExample]]


def train(
    scale: wl.Scale,
    dataset: Dataset,
    selector: SimilaritySelector,
    share: int = 1,
    *labels,
) -> Trained:
    """Label seeded probes on ``selector`` and fit one CardNet-A on them.
    ``share`` divides the probe budget (one estimator per shard)."""
    attribute = wl.ATTRIBUTE_BY_NAME[dataset.name]
    budget = scale.train_probes_edit if attribute.name == "ed" else scale.train_probes
    probes = wl.training_probes(
        attribute.name, dataset.records, max(5, budget // share), *labels
    )
    held_out = max(1, int(round(VALIDATION_SHARE * len(probes))))
    thresholds = wl.training_thresholds(attribute)
    training = label_queries(probes[held_out:], thresholds, selector)
    validation = label_queries(probes[:held_out], thresholds, selector)
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=scale.epochs,
        vae_pretrain_epochs=scale.vae_epochs, seed=0,
    )
    estimator.fit(training, validation)
    return estimator, training, validation


def _selector(attribute: wl.Attribute, records: Sequence, gph: bool) -> SimilaritySelector:
    if gph and attribute.name == "hm":
        return PigeonholeHammingSelector(records, part_size=wl.GPH_PART_SIZE)
    return default_selector(attribute.distance, records)


def _manager(trained: Trained, selector: SimilaritySelector) -> IncrementalUpdateManager:
    estimator, training, validation = trained
    return IncrementalUpdateManager(
        estimator, selector, training, validation,
        max_epochs_per_update=MAX_EPOCHS_PER_UPDATE,
    )


def _register_sharded(
    engine: SimilarityQueryEngine, scale: wl.Scale, dataset: Dataset
) -> List[Trained]:
    """One index and one CardNet-A per shard, trained on that shard's rows."""
    attribute = wl.ATTRIBUTE_BY_NAME[dataset.name]
    trained: List[Trained] = []

    def estimator_factory(shard_records, shard_index):
        shard = wl.shard_dataset(dataset, shard_records)
        result = train(
            scale, shard, default_selector(attribute.distance, shard_records),
            wl.NUM_SHARDS, shard_index,
        )
        trained.append(result)
        return result[0]

    engine.register_sharded_attribute(
        attribute.name, dataset.records, attribute.distance, estimator_factory,
        num_shards=wl.NUM_SHARDS, theta_max=attribute.theta_max, backend="thread",
    )
    return trained


def build(workload: str, scale: wl.Scale, tick: Callable[[], object] = lambda: None) -> Fixture:
    """One set-up.  ``tick`` is called after each attribute is built (the
    runner samples the machine's speed there)."""
    relation = wl.build_relation(scale.n_rows)
    columns = wl.Columns(relation)

    if workload == "estimate_unique":
        service = EstimationService()
        selectors = {}
        for attribute in wl.ATTRIBUTES:
            dataset = relation[attribute.name]
            selectors[attribute.name] = _selector(attribute, dataset.records, gph=False)
            estimator, _, _ = train(scale, dataset, selectors[attribute.name])
            service.register(
                attribute.name, estimator, theta_max=attribute.theta_max,
                distance_name=attribute.distance,
            )
            tick()
        return Fixture(columns, service, selectors=selectors)

    engine = SimilarityQueryEngine(drift_threshold=DRIFT_THRESHOLD)
    fixture = Fixture(columns, engine.service, engine=engine)
    for attribute in wl.ATTRIBUTES:
        dataset = relation[attribute.name]
        sharded = workload == "conj_sharded_unique" or (
            workload == "update_mix" and attribute.name == "eu"
        )
        if sharded:
            trained = _register_sharded(engine, scale, dataset)
            if workload == "update_mix":
                shards = engine.catalog.get(attribute.name).selector.shards
                engine.attach_shard_managers(
                    attribute.name,
                    [_manager(t, shard) for t, shard in zip(trained, shards)],
                )
            tick()
            continue
        selector = _selector(attribute, dataset.records, gph=True)
        result = train(scale, dataset, selector)
        # A supplied pigeonhole selector gets per-part endpoints and GPH plans.
        engine.register_attribute(
            attribute.name, dataset.records, attribute.distance, result[0],
            selector=selector, theta_max=attribute.theta_max,
        )
        # update_mix: hm and ed maintain their model (§8), jc only invalidates.
        if workload == "update_mix" and attribute.name in ("hm", "ed"):
            engine.attach_manager(attribute.name, _manager(result, selector))
        tick()
    return fixture
