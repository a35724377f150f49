"""The engine's one maintenance path, checked against re-evaluation from scratch.

One suite over {unsharded, 4-shard} × {no manager, routed manager,
feedback-only manager} × {Hamming, Jaccard}, driven by a Hypothesis-generated
insert/delete sequence.  After every step — and again after a forced drift
repair — the maintained state must equal what a rebuild would give
(Berkholz et al.: the maintained answer after any update sequence equals
re-evaluation from scratch):

* engine results equal :class:`LinearScanSelector` on a mirrored dataset, and
  the attribute's column equals the mirror row for row *and keeps its type*;
* every manager's ``selector`` is its unit's index and ``len(manager.records)``
  is that index's length — managers adopt, never own, an index;
* validation labels maintained by ``relabel_delta`` equal a full ``relabel``;
* every served curve — per unit, merged, and refetched after an
  invalidation — is non-decreasing in θ, and the one cached since the last
  check is close to the refetched one;
* a sharded attribute's merged curve, as cached since the last check, equals
  its shard endpoints' freshly served curves summed in shard order.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CardNetEstimator, IncrementalUpdateManager
from repro.core.incremental import UpdateStepReport
from repro.datasets import make_binary_dataset, make_set_dataset
from repro.datasets.updates import UpdateOperation
from repro.distances import get_distance
from repro.engine import SimilarityPredicate, SimilarityQueryEngine
from repro.engine.engine import ShardedUpdateReport
from repro.selection import LinearScanSelector, default_selector
from repro.workloads.builder import label_queries, relabel, relabel_delta

NUM_SHARDS = 4
MODES = ("none", "routed", "feedback")
#: A q-error no window of real observations reaches: drift fires only when
#: the test forces it.
DRIFT_THRESHOLD = 1e6


def _hamming():
    dataset = make_binary_dataset(
        num_records=96, dimension=16, num_clusters=3, flip_probability=0.1,
        theta_max=6, seed=3, name="HM-Maint",
    )
    return dataset, [1.0, 3.0, 6.0]


def _jaccard():
    dataset = make_set_dataset(
        num_records=96, num_clusters=3, universe_size=40, base_set_size=8,
        theta_max=0.5, seed=3, name="JC-Maint",
    )
    return dataset, [0.1, 0.3, 0.5]


@pytest.fixture(scope="module", params=["hamming", "jaccard"])
def trained(request):
    """(dataset, thresholds, train probes, validation probes, fitted estimator)."""
    dataset, thresholds = {"hamming": _hamming, "jaccard": _jaccard}[request.param]()
    selector = default_selector(dataset.distance_name, dataset.records)
    train_probes = [dataset.records[i] for i in range(0, 16, 4)]
    validation_probes = [dataset.records[i] for i in range(1, 10, 3)]
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=1, vae_pretrain_epochs=1, seed=0
    )
    estimator.fit(
        label_queries(train_probes, thresholds, selector),
        label_queries(validation_probes, thresholds, selector),
    )
    return dataset, thresholds, train_probes, validation_probes, estimator


def _new_row(distance_name, source, salt):
    """A row derived from ``source``: one bit flipped / one token toggled."""
    if distance_name == "hamming":
        row = np.array(source, copy=True)
        row[salt % row.shape[0]] ^= 1
        return row
    return frozenset(set(source) ^ {salt % 40})


class Harness:
    """One engine over one attribute ``"a"``, a mirror of its rows, and
    test-side validation labels maintained with ``relabel_delta``."""

    def __init__(self, trained, sharded, mode):
        dataset, thresholds, train_probes, validation_probes, estimator = trained
        self.distance_name = dataset.distance_name
        self.mode = mode
        self.sharded = sharded
        self.column_type = type(dataset.records)
        self.column_dtype = getattr(dataset.records, "dtype", None)
        self.mirror = list(dataset.records)
        self.probes = validation_probes
        self.thresholds = thresholds
        self.engine = SimilarityQueryEngine(
            drift_threshold=DRIFT_THRESHOLD, feedback_window=4, min_feedback_observations=1
        )
        if sharded:
            self.binding = self.engine.register_sharded_attribute(
                "a", dataset.records, self.distance_name,
                lambda rows, shard_index: copy.deepcopy(estimator),
                num_shards=NUM_SHARDS, theta_max=dataset.theta_max,
            )
        else:
            self.binding = self.engine.register_attribute(
                "a", dataset.records, self.distance_name, copy.deepcopy(estimator),
                theta_max=dataset.theta_max,
            )
        self.labels = label_queries(validation_probes, thresholds, self.binding.selector)
        if mode != "none":
            self._attach(train_probes, validation_probes)

    def _attach(self, train_probes, validation_probes):
        managers = [
            IncrementalUpdateManager(
                self.engine.service.registry.get(endpoint).estimator,
                index,
                label_queries(train_probes, self.thresholds, index),
                label_queries(validation_probes, self.thresholds, index),
                max_epochs_per_update=1,
            )
            for index, endpoint in self.binding.units()
        ]
        if self.sharded:
            self.engine.attach_shard_managers("a", managers)
            # There is no public feedback-only entry point for shards (and
            # this PR adds no option); the one path supports it all the same.
            self.engine._links["a"].route_updates = self.mode == "routed"
        else:
            self.engine.attach_manager("a", managers[0], route_updates=self.mode == "routed")

    @property
    def managers(self):
        link = self.engine._links.get("a")
        return {} if link is None else link.managers

    # ------------------------------------------------------------------ #
    def step(self, insert, picks):
        if insert:
            rows = [
                _new_row(self.distance_name, self.mirror[pick % len(self.mirror)], pick)
                for pick in picks
            ]
            operation = UpdateOperation("insert", rows)
            inserted, removed = rows, []
            self.mirror = self.mirror + rows
        else:
            # Lenient stream semantics: out-of-range skipped, duplicates collapsed.
            doomed = {pick for pick in picks if 0 <= pick < len(self.mirror)}
            operation = UpdateOperation("delete", list(picks))
            inserted, removed = [], [self.mirror[i] for i in sorted(doomed)]
            self.mirror = [row for i, row in enumerate(self.mirror) if i not in doomed]
        report = self.engine.apply_update("a", operation)
        self.labels = relabel_delta(self.labels, self.binding.selector, inserted, removed)
        self._check_report(report)

    def _check_report(self, report):
        routed = self.mode == "routed"
        if not self.sharded:
            assert isinstance(report, UpdateStepReport) if routed else report is None
            return
        assert isinstance(report, ShardedUpdateReport)
        assert report.dataset_size == len(self.mirror)
        assert set(report.reports) == (set(report.touched_shards) if routed else set())

    def force_drift_repair(self):
        for manager in self.managers.values():
            manager._baseline_validation_error = -1.0  # any error is a degradation
        event = self.engine.feedback.observe("a", 1.0, 1e9)
        assert event is not None and event.endpoint == "a"
        if self.mode == "none":
            assert event.revalidation is None
        else:
            assert event.revalidation.retrained

    # ------------------------------------------------------------------ #
    def check(self, labels_current):
        """The five invariants; ``labels_current`` says whether every
        manager's labels must be exact now (always for routed managers; for
        feedback-only ones only right after a repair)."""
        binding, mirror = self.binding, self.mirror
        # 1. Column == mirror, type kept; results == linear scan from scratch.
        assert type(binding.records) is self.column_type
        assert len(binding) == len(mirror) == len(binding.selector)
        if self.column_dtype is not None:
            assert binding.records.dtype == self.column_dtype
            ends = np.asarray([0, len(mirror) - 1])
            values = binding.selector.rows_at(ends)
            assert isinstance(values, np.ndarray)  # vectorized, never per-row
            assert np.array_equal(values, np.asarray([mirror[0], mirror[-1]]))
            assert np.array_equal(binding.records, np.asarray(mirror))
        else:
            assert list(binding.records) == mirror
        reference = LinearScanSelector(mirror, get_distance(self.distance_name))
        for probe in (self.probes[0], mirror[-1]):
            theta = self.thresholds[1]
            result = self.engine.execute(SimilarityPredicate("a", probe, theta))
            assert result.record_ids == reference.query(probe, theta)
        # 2. Managers adopt, never own, an index.
        units = binding.units()
        assert sum(len(index) for index, _ in units) == len(mirror)
        for unit_id, manager in self.managers.items():
            assert manager.selector is units[unit_id][0]
            assert len(manager.records) == len(units[unit_id][0])
        # 3. Delta-maintained labels equal a full relabel.
        assert _cardinalities(self.labels) == _cardinalities(
            relabel(self.labels, binding.selector)
        )
        if labels_current:
            for manager in self.managers.values():
                assert _cardinalities(manager.validation_examples) == _cardinalities(
                    relabel(manager.validation_examples, manager.selector)
                )
        service = self.engine.service

        def cached_and_refetched(endpoint):
            curve = service.estimate_curve(endpoint, self.probes[0])
            assert np.all(np.diff(curve) >= 0), endpoint
            service.invalidate(endpoint)
            refetched = service.estimate_curve(endpoint, self.probes[0])
            assert np.all(np.diff(refetched) >= 0), endpoint
            # Same model, same data; batch shape may move the last bits.
            assert np.allclose(curve, refetched)

        # 4. Every served curve is monotone in θ — cached since the last check
        #    or refetched — and a stale cache shows as a moved curve.  Shards
        #    first: their caches are dropped here, the merged one is kept for 5.
        for _, endpoint in units:
            if endpoint != binding.endpoint:
                cached_and_refetched(endpoint)
        # 5. The merged curve cached since the last check is the sum of fresh
        #    shard curves: a shard that moved while it stayed cached shows here.
        if self.sharded:
            for probe in (self.probes[0], mirror[-1]):
                merged = service.estimate_curve(binding.endpoint, probe)
                summed = np.zeros_like(merged)
                for _, endpoint in units:
                    summed += service.estimate_curve(endpoint, probe)
                assert np.array_equal(merged, summed)
        cached_and_refetched(binding.endpoint)


def _cardinalities(examples):
    return [example.cardinality for example in examples]


steps = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(-3, 140), min_size=1, max_size=6)),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "4-shard"])
@settings(max_examples=6, deadline=None)
@given(sequence=steps)
def test_maintained_state_equals_rebuild(trained, sharded, mode, sequence):
    harness = Harness(trained, sharded, mode)
    harness.check(labels_current=True)
    for insert, picks in sequence:
        harness.step(insert, picks)
        harness.check(labels_current=mode == "routed")
    harness.force_drift_repair()
    harness.check(labels_current=True)


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "4-shard"])
def test_attach_rejects_a_manager_built_over_other_rows(trained, sharded):
    """Unsharded attach has the length and wiring checks the sharded one has."""
    harness = Harness(trained, sharded, "none")
    index, endpoint = harness.binding.units()[0]
    estimator = harness.engine.service.registry.get(endpoint).estimator
    attach = (
        (lambda m: harness.engine.attach_shard_managers("a", {0: m}))
        if sharded
        else (lambda m: harness.engine.attach_manager("a", m))
    )
    short = default_selector(harness.distance_name, harness.mirror[:5])
    with pytest.raises(ValueError, match="records"):
        attach(IncrementalUpdateManager(estimator, short, [], []))
    miswired = IncrementalUpdateManager(
        estimator, index, [], [],
        service=harness.engine.service, service_endpoint="elsewhere",
    )
    with pytest.raises(ValueError, match="wired"):
        attach(miswired)
    assert "a" not in harness.engine._links
    # A manager built over its own copy of the rows is adopted onto the
    # unit's index: one maintained index from then on.
    own = default_selector(harness.distance_name, list(index.dataset))
    adopted = IncrementalUpdateManager(estimator, own, [], [])
    attach(adopted)
    assert adopted.selector is index
    with pytest.raises(ValueError, match="sharded"):
        if sharded:
            harness.engine.attach_manager("a", adopted)
        else:
            harness.engine.attach_shard_managers("a", [adopted])
