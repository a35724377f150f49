"""Runtime semantics: the inline metrics sink and the snapshot hooks."""

from __future__ import annotations

import threading

import pytest

from repro.obs import current_registry, default_registry
from repro.runtime import Runtime
from repro.serving import ServingTelemetry
from repro.store import load_component, save_component


class TestRunInline:
    def test_runs_on_the_caller_under_the_telemetry_sink(self):
        telemetry = ServingTelemetry()
        runtime = Runtime(telemetry)

        def task(a, b=0):
            return threading.get_ident(), current_registry(), a + b

        ident, inline_side, value = runtime.run_inline(task, 2, b=3)
        assert ident == threading.get_ident() and value == 5
        assert inline_side is telemetry.metrics
        # The caller's own ambient registry is back afterwards.
        assert current_registry() is default_registry()
        assert runtime.stats() == {}

    def test_without_telemetry_the_sink_is_the_default_registry(self):
        assert Runtime().run_inline(current_registry) is default_registry()

    def test_errors_propagate_and_the_registry_is_restored(self):
        runtime = Runtime(ServingTelemetry())
        with pytest.raises(ZeroDivisionError):
            runtime.run_inline(lambda: 1 / 0)
        assert current_registry() is default_registry()


class TestSnapshotHooks:
    def test_round_trip_keeps_the_telemetry_sink(self, tmp_path):
        runtime = Runtime(ServingTelemetry())
        save_component(runtime, tmp_path / "rt")
        restored = load_component(tmp_path / "rt")
        assert isinstance(restored, Runtime)
        assert vars(restored).keys() == {"telemetry"}
        assert restored.stats() == {}
        # ...and the restored runtime is immediately usable again.
        assert restored.run_inline(current_registry) is restored.telemetry.metrics

    def test_runtime_telemetry_survives_the_round_trip(self, tmp_path):
        telemetry = ServingTelemetry()
        runtime = Runtime(telemetry)
        telemetry.record_requests("vec", 3, 1, 2)
        save_component(runtime, tmp_path / "rt")
        restored = load_component(tmp_path / "rt")
        # Counters persisted; the lock was rebuilt (recording still works).
        assert restored.telemetry.snapshot()["vec"]["requests"] == 3
        restored.telemetry.record_requests("vec", 1, 1, 0)
        assert restored.telemetry.snapshot()["vec"]["requests"] == 4
