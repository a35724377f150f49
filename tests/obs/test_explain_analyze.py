"""Engine.explain_analyze: per-predicate estimated-vs-actual reports, span
trees covering the shard fan-out, the slow-query ring, and
the tracing-never-changes-results guarantee."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.obs import SlowQueryLog, disable_tracing, enable_tracing
from repro.selection import PigeonholeHammingSelector
from repro.store import load_component, save_component

RNG = np.random.default_rng(31)

NUM_ROWS = 90


def sampling_factory(distance_name, **options):
    def factory(shard_records, shard_index):
        return UniformSamplingEstimator(
            shard_records, distance_name, seed=shard_index, **options
        )

    return factory


def _build_engine(**engine_kwargs):
    """Two euclidean attributes over one relation: 'vec' sharded 3 ways,
    'aux' unsharded."""
    vec = [row for row in RNG.normal(size=(NUM_ROWS, 8))]
    aux = [row for row in RNG.normal(size=(NUM_ROWS, 4))]
    engine = SimilarityQueryEngine(**engine_kwargs)
    engine.register_sharded_attribute(
        "vec",
        vec,
        "euclidean",
        sampling_factory("euclidean", sample_ratio=0.3),
        num_shards=3,
        theta_max=6.0,
    )
    engine.register_attribute(
        "aux",
        aux,
        "euclidean",
        UniformSamplingEstimator(aux, "euclidean", sample_ratio=0.3, seed=0),
        theta_max=4.0,
    )
    return engine, vec, aux


def _two_predicate_query(vec, aux, index=0):
    return ConjunctiveQuery(
        [
            SimilarityPredicate("vec", vec[index], 3.0),
            SimilarityPredicate("aux", aux[index], 2.5),
        ]
    )


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


class TestReportContents:
    def test_two_predicate_report_pairs_estimates_with_actuals(self):
        engine, vec, aux = _build_engine()
        report = engine.explain_analyze(_two_predicate_query(vec, aux))
        assert report.result_count >= 1  # the query record matches itself
        assert {p.role for p in report.predicates} == {"driver", "residual"}
        assert {p.attribute for p in report.predicates} == {"vec", "aux"}
        for predicate in report.predicates:
            assert predicate.estimated > 0.0
            # The conjunction is an intersection: every single predicate
            # matches at least every row the full query returned.
            assert predicate.actual >= report.result_count
            assert predicate.q_error >= 1.0
        assert report.driver is not None
        assert report.plan["driver"] in ("vec", "aux")
        assert report.plan["execution_seconds"] > 0.0
        as_dict = report.to_dict()
        assert len(as_dict["predicates"]) == 2
        assert as_dict["trace"]["name"] == "query.explain_analyze"

    def test_trace_covers_planning_and_execution_stages(self):
        engine, vec, aux = _build_engine()
        report = engine.explain_analyze(_two_predicate_query(vec, aux))
        stages = report.stage_seconds()
        for stage in (
            "query.explain_analyze",
            "query.plan",
            "query.execute",
            "execute.driver",
            "execute.verify",
            "analyze.actuals",
        ):
            assert stage in stages, f"missing stage {stage}"
        rendered = report.describe()
        assert "EXPLAIN ANALYZE" in rendered
        assert "q-err=" in rendered
        assert "query.plan" in rendered

    def test_thread_backend_records_per_shard_spans(self):
        engine, vec, aux = _build_engine()
        report = engine.explain_analyze(_two_predicate_query(vec, aux))
        # 'vec' fans out either as the driver scan or as the residual
        # actual-cardinality measurement — shard spans appear either way.
        shard_spans = report.shard_spans()
        assert {s.attributes["shard"] for s in shard_spans} == {0, 1, 2}
        assert all(s.duration is not None for s in shard_spans)

    def test_gph_hamming_report_carries_the_allocation(self):
        records = [row for row in RNG.integers(0, 2, size=(80, 24)).astype(np.uint8)]
        engine = SimilarityQueryEngine()
        engine.register_attribute(
            "bits",
            records,
            "hamming",
            UniformSamplingEstimator(records, "hamming", sample_ratio=0.3, seed=0),
            selector=PigeonholeHammingSelector(records, part_size=8),
            theta_max=12.0,
        )
        report = engine.explain_analyze(
            SimilarityPredicate("bits", records[0], 6.0)
        )
        assert report.plan["allocation"] is not None
        assert "plan.gph" in report.stage_seconds()
        (driver,) = report.predicates
        assert driver.role == "driver"
        assert driver.actual >= 1


class TestServiceSpans:
    """Every public estimate call of the service is a ``service.estimate``
    span — the curve entry points behind GPH part curves and the per-shard
    fetches of a merged endpoint included (they used to be invisible)."""

    @staticmethod
    def _service_endpoints(report):
        return [s.attributes["endpoint"] for s in report.trace.find("service.estimate")]

    def test_gph_plan_shows_a_service_span_per_part_endpoint(self):
        records = [row for row in RNG.integers(0, 2, size=(80, 24)).astype(np.uint8)]
        engine = SimilarityQueryEngine()
        engine.register_attribute(
            "bits",
            records,
            "hamming",
            UniformSamplingEstimator(records, "hamming", sample_ratio=0.3, seed=0),
            selector=PigeonholeHammingSelector(records, part_size=8),
            theta_max=12.0,
        )
        report = engine.explain_analyze(SimilarityPredicate("bits", records[3], 6.0))
        assert report.plan["allocation"] is not None  # GPH drove the plan
        endpoints = self._service_endpoints(report)
        for part in range(3):
            assert f"bits::part{part}" in endpoints
        assert "bits" in endpoints
        assert all(
            s.attributes["batch"] >= 1 for s in report.trace.find("service.estimate")
        )
        # ... and each of those requests was recorded like any other.
        for part in range(3):
            stats = engine.service.telemetry.endpoint(f"bits::part{part}")
            assert stats.requests >= 1
            assert stats.latency_percentiles is not None

    def test_sharded_estimate_is_one_service_request(self):
        engine, vec, aux = _build_engine()
        report = engine.explain_analyze(_two_predicate_query(vec, aux, index=5))
        endpoints = self._service_endpoints(report)
        assert {"vec", "aux"} <= set(endpoints)
        # The merged endpoint sums its shard estimators inside its own
        # request: no shard endpoint is asked, at top level or nested.
        assert not any("#shard" in endpoint for endpoint in endpoints)
        (merged,) = [
            s for s in report.trace.find("service.estimate")
            if s.attributes["endpoint"] == "vec"
        ]
        assert merged.find("service.estimate") == [merged]
        # Execution still fans out to every shard.
        assert {s.attributes["shard"] for s in report.shard_spans()} == {0, 1, 2}


class TestResultsUnchanged:
    def test_explain_analyze_matches_execute(self):
        engine, vec, aux = _build_engine()
        query = _two_predicate_query(vec, aux)
        expected = engine.execute(query)
        report = engine.explain_analyze(query, feedback=False)
        assert report.result_count == len(expected.record_ids)

    def test_tracing_does_not_change_results(self):
        engine, vec, aux = _build_engine()
        query = _two_predicate_query(vec, aux)
        untraced = engine.execute(query)
        enable_tracing()
        try:
            traced = engine.execute(query)
        finally:
            disable_tracing()
        assert traced.record_ids == untraced.record_ids
        assert traced.driver_actual == untraced.driver_actual


class TestSlowQueryLog:
    def test_threshold_filters_entries(self):
        log = SlowQueryLog(threshold_seconds=10.0, capacity=4)
        assert not log.record({"duration_seconds": 0.01})
        assert len(log) == 0
        assert log.record({"duration_seconds": 11.0})
        assert len(log) == 1

    def test_capacity_bounds_the_ring(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=2)
        for index in range(5):
            log.record({"duration_seconds": 1.0, "index": index})
        entries = log.entries()
        assert len(entries) == 2
        assert [entry["index"] for entry in entries] == [3, 4]  # oldest dropped
        log.clear()
        assert len(log) == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_engine_records_slow_queries(self):
        engine, vec, aux = _build_engine(slow_query_seconds=0.0, slow_query_capacity=8)
        for index in (0, 1, 2):
            engine.execute(_two_predicate_query(vec, aux, index=index))
        entries = engine.slow_queries.entries()
        assert len(entries) == 3
        entry = entries[0]
        assert entry["duration_seconds"] > 0.0
        assert entry["driver"] in ("vec", "aux")
        assert sorted(attr for attr, _ in entry["predicates"]) == ["aux", "vec"]
        assert "result_count" in entry and "estimated" in entry

    def test_quiet_engine_keeps_an_empty_ring(self):
        engine, vec, aux = _build_engine(slow_query_seconds=30.0)
        engine.execute(_two_predicate_query(vec, aux))
        assert len(engine.slow_queries) == 0

    def test_fast_query_builds_no_entry(self, monkeypatch):
        """Below the threshold the engine hands the log nothing: no entry
        dict is built only to be dropped."""
        engine, vec, aux = _build_engine(slow_query_seconds=30.0)
        offered = []
        monkeypatch.setattr(engine.slow_queries, "record", offered.append)
        engine.execute_many([_two_predicate_query(vec, aux, index=i) for i in (0, 1)])
        assert offered == []

    def test_snapshot_round_trip_keeps_the_ring(self, tmp_path):
        log = SlowQueryLog(threshold_seconds=0.5, capacity=3)
        log.record({"duration_seconds": 1.0, "driver": "vec"})
        save_component(log, tmp_path / "log")
        restored = load_component(tmp_path / "log")
        assert restored.threshold_seconds == 0.5
        assert restored.entries() == log.entries()
        assert restored.to_dict() == log.to_dict()
        restored.record({"duration_seconds": 2.0})  # the lock restored fresh
        assert len(restored) == 2
        for seconds in (3.0, 4.0):
            restored.record({"duration_seconds": seconds})
        assert len(restored) == 3  # the ring keeps its capacity
        assert [e["duration_seconds"] for e in restored.entries()] == [2.0, 3.0, 4.0]


class TestHealthReport:
    def test_health_report_renders_every_section(self):
        """Sharded 'vec' and unsharded 'aux' in one engine: attributes (with
        shard topology), the service cache, slow queries and feedback reach
        both renderings."""
        engine, vec, aux = _build_engine(slow_query_seconds=0.0)
        engine.execute(_two_predicate_query(vec, aux))
        report = engine.health_report()
        assert report.attributes["vec"]["shards"] == 3
        assert report.attributes["aux"]["shards"] is None
        assert report.service["cache"]
        assert len(report.slow_queries) == 1
        text = report.describe()
        assert text.splitlines()[0] == "ENGINE HEALTH"
        assert "shards=3" in text and "aux" in text
        assert "cache: size=" in text
        assert "slow queries: 1 retained" in text
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "attributes", "service", "slow_queries",
            "slow_query_threshold_seconds", "feedback",
        }
        assert sum(payload["attributes"]["vec"]["shard_sizes"]) == NUM_ROWS
        assert payload["feedback"] == engine.feedback.snapshot()
