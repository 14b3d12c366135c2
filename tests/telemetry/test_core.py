"""The Telemetry facade: lifecycle, file output, and the disabled path."""

import json

from repro.telemetry import (
    NULL_TELEMETRY,
    MemorySink,
    Telemetry,
    read_events,
)
from repro.telemetry.core import _NULL_METRIC


class TestDisabledPath:
    """Telemetry off must cost (almost) nothing: shared no-op objects,
    no allocation, no files."""

    def test_null_singleton_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.directory is None

    def test_metrics_are_one_shared_noop(self):
        t = Telemetry.null()
        assert t.counter("a", layer="x") is _NULL_METRIC
        assert t.gauge("b") is _NULL_METRIC
        assert t.histogram("c") is _NULL_METRIC
        # The no-op accepts the full metric API.
        t.counter("a").inc()
        t.gauge("b").set(1.0)
        t.gauge("b").add(1.0)
        t.histogram("c").observe(3.0)
        # Nothing was recorded anywhere.
        assert t.registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }

    def test_spans_are_one_shared_noop(self):
        t = Telemetry.null()
        assert t.span("x") is t.span("y", attr=1)
        with t.span("outer"):
            with t.span("inner"):
                assert t.tracer.active_depth == 0

    def test_events_and_lifecycle_are_noops(self, tmp_path):
        t = Telemetry.null()
        t.event("something", value=3)
        t.flush()
        t.close()
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere


class TestLifecycle:
    def test_create_with_directory_writes_all_files(self, tmp_path):
        t = Telemetry.create(directory=tmp_path, log_level="silent")
        assert t.enabled
        with t.span("run"):
            t.counter("ccq.steps").inc()
        t.event("step_complete", step=0)
        t.close()
        events = read_events(t.events_path)
        assert {e["type"] for e in events} == {"span", "event"}
        metrics = json.loads(t.metrics_path.read_text())
        assert metrics["counters"][0]["name"] == "ccq.steps"
        assert (tmp_path / "metrics.csv").exists()

    def test_create_without_directory_writes_no_files(self, tmp_path):
        t = Telemetry.create(log_level="silent")
        with t.span("run"):
            pass
        t.event("x")
        t.flush()
        t.close()
        assert t.events_path is None and t.metrics_path is None

    def test_flush_snapshots_metrics_mid_run(self, tmp_path):
        t = Telemetry.create(directory=tmp_path, log_level="silent")
        t.counter("steps").inc()
        t.flush()
        first = json.loads(t.metrics_path.read_text())
        assert first["counters"][0]["value"] == 1.0
        t.counter("steps").inc()
        t.flush()
        second = json.loads(t.metrics_path.read_text())
        assert second["counters"][0]["value"] == 2.0
        t.close()

    def test_in_memory_collects_events(self):
        t = Telemetry.in_memory()
        with t.span("probe"):
            pass
        t.event("done")
        assert isinstance(t.sink, MemorySink)
        assert [e["type"] for e in t.sink.events] == ["span", "event"]

    def test_logger_mirrors_into_the_run_sink(self, tmp_path):
        import io

        t = Telemetry.create(
            directory=tmp_path, log_level="info", log_stream=io.StringIO()
        )
        t.logger.info("hello", step=1)
        t.close()
        logs = [
            e for e in read_events(t.events_path) if e["type"] == "log"
        ]
        assert logs and logs[0]["msg"] == "hello"

    def test_numpy_values_serialize_in_events(self, tmp_path):
        import numpy as np

        t = Telemetry.create(directory=tmp_path, log_level="silent")
        t.event("step", accuracy=np.float64(0.5), bits=np.array([4, 8]))
        t.close()
        (event,) = read_events(t.events_path)
        assert event["fields"]["accuracy"] == 0.5
        assert event["fields"]["bits"] == [4, 8]
