"""MonitoringHub: the one handle over scraper + SLOs + alerts.

Deterministic throughout — hubs are driven by ``tick(now)`` with injected
instants; the only live-loop test is start/stop plumbing on a real engine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.engine import ConjunctiveQuery, SimilarityPredicate, SimilarityQueryEngine
from repro.obs import (
    AlertRule,
    MetricsRegistry,
    MonitoringHub,
    SLObjective,
    metric_key,
)
from repro.store import load_component, save_component


def make_hub(**kwargs):
    return MonitoringHub(registry=MetricsRegistry(), **kwargs)


def make_engine(num_records=400, dim=8, seed=5):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(num_records, dim))
    engine = SimilarityQueryEngine(drift_threshold=1e9)
    engine.register_attribute(
        "vec",
        matrix,
        "euclidean",
        UniformSamplingEstimator(matrix, "euclidean", sample_ratio=0.1, seed=0),
        theta_max=8.0,
    )
    return engine


class TestDeterministicTicks:
    def test_tick_scrapes_and_evaluates(self):
        hub = make_hub()
        hub.registry.counter("repro_ticks_total").inc(4)
        hub.add_objective(SLObjective.latency("e", threshold=0.1))
        assert hub.tick(now=10.0) == 10.0
        hub.registry.counter("repro_ticks_total").inc(2)
        hub.tick(now=20.0)
        assert hub.store.increase("repro_ticks_total", 60.0, now=20.0) == 2.0
        # SLO evaluated each tick; no latency data yet → loud no_data.
        (status,) = hub.last_slo_statuses
        assert status.no_data
        assert hub.status()["ticks"] == 2

    def test_slo_gauges_become_series_on_the_next_tick(self):
        """The monitoring signals feed back into the scraped registry, so
        burn rates are themselves time series one tick later."""
        hub = make_hub()
        hub.add_objective(SLObjective.latency("e", threshold=0.1, objective=0.99))
        latency = hub.registry.histogram(
            "repro_request_latency_seconds",
            labels={"endpoint": "e"},
        )
        hub.tick(now=0.0)  # zero-count baseline scrape
        for _ in range(98):
            latency.observe(0.01)
        for _ in range(2):
            latency.observe(5.0)
        hub.tick(now=60.0)
        hub.tick(now=120.0)
        burn_key = metric_key(
            "repro_slo_burn_rate", {"slo": "latency-e", "window": "fast"}
        )
        latest = hub.store.latest(burn_key)
        assert latest is not None
        assert latest[1] == pytest.approx(2.0)

    def test_alerts_walk_their_fsm_under_ticked_time(self):
        hub = make_hub()
        depth = hub.registry.gauge("repro_depth")
        hub.add_rule(
            AlertRule(
                name="deep", kind="threshold", series="repro_depth",
                value=10.0, for_seconds=30.0,
            )
        )
        depth.set(1.0)
        hub.tick(now=0.0)
        assert hub.alerts.state("deep") == "inactive"
        depth.set(99.0)
        hub.tick(now=10.0)
        assert hub.alerts.state("deep") == "pending"
        hub.tick(now=40.0)
        assert hub.alerts.state("deep") == "firing"
        assert hub.status()["firing"] == ["deep"]

    def test_start_without_runtime_refuses(self):
        with pytest.raises(RuntimeError, match="runtime"):
            make_hub().start()


class TestSnapshotRoundTrip:
    def build_populated_hub(self):
        hub = make_hub()
        hub.add_objective(SLObjective.latency("e", threshold=0.1))
        hub.add_rule(
            AlertRule(name="deep", kind="threshold", series="repro_depth", value=10.0)
        )
        depth = hub.registry.gauge("repro_depth")
        for now in (0.0, 10.0, 20.0):
            depth.set(50.0)
            hub.tick(now=now)
        return hub

    def test_round_trip_preserves_history_and_states(self, tmp_path):
        hub = self.build_populated_hub()
        assert hub.alerts.state("deep") == "firing"
        save_component(hub, tmp_path / "hub")
        restored = load_component(tmp_path / "hub")
        assert restored.store.to_dict() == hub.store.to_dict()
        assert restored.alerts.state("deep") == "firing"
        assert [o.name for o in restored.slos.objectives()] == ["latency-e"]
        # Derived views drop at snapshot; the next tick re-derives them.
        assert restored.last_slo_statuses == []
        restored.registry.gauge("repro_depth").set(50.0)
        restored.tick(now=30.0)
        assert restored.last_slo_statuses

    def test_running_hub_refuses_snapshot(self):
        engine = make_engine()
        hub = engine.monitor(interval=0.01)
        try:
            assert hub.running
            with pytest.raises(RuntimeError, match="running"):
                hub.__snapshot_state__()
        finally:
            hub.stop()
            engine.runtime.shutdown()


class TestEngineIntegration:
    def execute(self, engine, record_id=3):
        record = engine.catalog.get("vec").records[record_id]
        query = ConjunctiveQuery([SimilarityPredicate("vec", record, 2.5)])
        return engine.execute(query)

    def test_monitor_is_cached_and_restartable(self):
        engine = make_engine()
        try:
            hub = engine.monitor(interval=0.01)
            assert engine.monitor() is hub  # same hub on later calls
            hub.stop()
            assert not hub.running
            assert engine.monitor() is hub  # restarted, not rebuilt
            assert hub.running
        finally:
            engine.monitoring.stop()
            engine.runtime.shutdown()

    def test_health_report_without_monitoring(self):
        engine = make_engine()
        try:
            self.execute(engine)
            report = engine.health_report()
            assert report.healthy
            assert report.monitoring is None
            assert report.slos == [] and report.alerts == []
            assert "vec" in report.attributes
            text = report.describe()
            assert "ENGINE HEALTH  [OK]" in text
            assert "alerts: none configured" in text
        finally:
            engine.runtime.shutdown()

    def test_health_report_with_monitoring_text_and_json(self):
        engine = make_engine()
        try:
            hub = engine.monitor(start=False)
            hub.add_objective(SLObjective.latency("vec", threshold=0.5))
            hub.add_rule(
                AlertRule(
                    name="burn", kind="burn_rate", slo="latency-vec",
                )
            )
            self.execute(engine)
            hub.tick(now=0.0)
            self.execute(engine, record_id=7)
            hub.tick(now=60.0)
            report = engine.health_report(now=60.0)
            assert report.monitoring is not None
            assert report.monitoring["ticks"] == 2
            assert [s["name"] for s in report.slos] == ["latency-vec"]
            assert [a["name"] for a in report.alerts] == ["burn"]
            assert report.healthy

            payload = json.loads(report.to_json())
            assert payload["healthy"] is True
            assert payload["monitoring"]["ticks"] == 2
            text = report.describe()
            assert "slos:" in text and "latency-vec" in text
            assert "burn" in text
        finally:
            engine.runtime.shutdown()

    def test_health_probe_is_read_only(self):
        engine = make_engine()
        try:
            hub = engine.monitor(start=False)
            hub.add_objective(SLObjective.latency("vec", threshold=0.5))
            hub.add_rule(AlertRule(name="burn", kind="burn_rate", slo="latency-vec"))
            self.execute(engine)
            hub.tick(now=0.0)
            before = hub.alerts.to_dict()
            engine.health_report(now=60.0)
            assert hub.alerts.to_dict() == before  # FSM did not step
            assert hub.status()["ticks"] == 1  # no extra scrape
        finally:
            engine.runtime.shutdown()

    def test_runtime_shutdown_releases_a_running_hub(self):
        """Forgetting hub.stop() must not deadlock runtime.shutdown(): pool
        shutdown sets the registered loop stop events, so the monitor
        workers become joinable."""
        engine = make_engine(num_records=200)
        hub = engine.monitor(interval=0.01)
        assert hub.running
        engine.runtime.shutdown()  # would join forever without the release

    def test_save_stops_a_running_hub_and_history_survives(self, tmp_path):
        engine = make_engine(num_records=200)
        try:
            hub = engine.monitor(interval=0.01)
            assert hub.running
            self.execute(engine)
            engine.save(tmp_path / "engine")
            assert not hub.running  # save() stopped the live loops
            restored = SimilarityQueryEngine.load(tmp_path / "engine")
            try:
                restored_hub = restored.monitor(start=False)
                assert restored_hub.store.to_dict() == hub.store.to_dict()
            finally:
                restored.runtime.shutdown()
        finally:
            engine.runtime.shutdown()

    def test_hub_reattached_after_restore_scrapes_the_restored_ledger(self, tmp_path):
        engine = make_engine(num_records=200)
        try:
            hub = engine.monitor(start=False)
            self.execute(engine)
            hub.tick(now=0.0)
            engine.save(tmp_path / "engine")
            restored = SimilarityQueryEngine.load(tmp_path / "engine")
            try:
                telemetry = restored.service.telemetry
                assert telemetry.snapshot() == engine.service.telemetry.snapshot()
                assert telemetry.to_prometheus() == engine.service.telemetry.to_prometheus()
                restored_hub = restored.monitor(start=False)
                assert restored_hub.registry is telemetry.metrics
                assert restored_hub.slos.registry is telemetry.metrics
                series = metric_key("repro_requests_total", {"endpoint": "vec"})
                before = restored_hub.store.latest(series)[1]
                self.execute(restored, record_id=7)
                restored_hub.tick(now=10.0)
                assert restored_hub.store.latest(series)[1] > before
                assert hub.registry is engine.service.telemetry.metrics
            finally:
                restored.runtime.shutdown()
        finally:
            engine.runtime.shutdown()
