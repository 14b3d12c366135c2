"""Metrics registry: percentiles, label cardinality, snapshot round-trip."""

import json
import math

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        assert g.value is None
        g.add(2.0)  # add on an unset gauge starts from zero
        assert g.value == 2.0
        g.set(-1.5)
        assert g.value == -1.5


class TestHistogramPercentiles:
    def test_empty_histogram_has_no_stats(self):
        h = Histogram()
        assert h.percentile(50) is None
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["p99"] is None
        assert summary["mean"] is None

    def test_single_value_is_every_percentile(self):
        h = Histogram()
        h.observe(7.0)
        assert h.percentile(0) == 7.0
        assert h.percentile(50) == 7.0
        assert h.percentile(100) == 7.0

    def test_interpolated_percentiles(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        # rank = 0.5 * 3 = 1.5 -> halfway between 2 and 3
        assert h.percentile(50) == pytest.approx(2.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0

    def test_percentile_bounds_are_validated(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(100.1)

    def test_non_finite_observations_are_dropped(self):
        h = Histogram()
        h.observe(float("nan"))
        h.observe(float("inf"))
        h.observe(1.0)
        assert h.count == 1
        assert math.isfinite(h.summary()["p99"])

    def test_summary_statistics(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0
        assert s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == pytest.approx(50.5)
        assert s["p90"] == pytest.approx(90.1)
        assert s["p99"] == pytest.approx(99.01)


class TestRegistry:
    def test_same_name_and_labels_share_a_series(self):
        reg = MetricsRegistry()
        reg.counter("x", layer="a").inc()
        reg.counter("x", layer="a").inc()
        assert reg.counter("x", layer="a").value == 2.0
        # Label order must not matter.
        reg.counter("y", a="1", b="2").inc()
        assert reg.counter("y", b="2", a="1").value == 1.0

    def test_type_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("ccq.steps").inc()
        with pytest.raises(TypeError):
            reg.histogram("ccq.steps")

    def test_label_cardinality_cap_collapses_to_overflow(self):
        reg = MetricsRegistry(max_series_per_name=4)
        for i in range(10):
            reg.counter("hot", layer=f"l{i}").inc()
        snap = reg.snapshot()
        series = [e for e in snap["counters"] if e["name"] == "hot"]
        # 4 real series + 1 shared overflow series.
        assert len(series) == 5
        overflow = [e for e in series if e["labels"].get("overflow")]
        assert len(overflow) == 1
        assert overflow[0]["value"] == 6.0
        assert snap["dropped_series"] == 6

    def test_snapshot_round_trips_through_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("runs").inc(3)
        reg.gauge("acc", split="val").set(0.91)
        for v in (0.1, 0.2, 0.3):
            reg.histogram("loss").observe(v)
        path = tmp_path / "metrics.json"
        reg.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["written_at"] > 0
        # Everything except the write stamp matches the live snapshot.
        loaded.pop("written_at")
        assert loaded == json.loads(json.dumps(reg.snapshot()))
        assert loaded["counters"][0] == {
            "name": "runs", "labels": {}, "value": 3.0,
        }
        assert loaded["gauges"][0]["labels"] == {"split": "val"}
        hist = loaded["histograms"][0]
        assert hist["count"] == 3
        assert hist["p50"] == pytest.approx(0.2)

    def test_csv_export_covers_every_series(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.histogram("loss").observe(1.0)
        path = tmp_path / "metrics.csv"
        reg.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("name,labels,type,field,value")
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"runs", "loss"}
        # Histogram expands into one row per summary field.
        assert sum(1 for line in lines if line.startswith("loss,")) == 8


class TestMerge:
    def test_counters_add_and_gauges_take_the_other_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("evals").inc(3)
        b.counter("evals").inc(4)
        a.gauge("bits").set(8)
        b.gauge("bits").set(6)
        a.gauge("keep").set(1.0)
        b.gauge("keep")  # never set: value None must not clobber
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"][0]["value"] == 7.0
        gauges = {g["name"]: g["value"] for g in snap["gauges"]}
        assert gauges["bits"] == 6.0
        assert gauges["keep"] == 1.0

    def test_merged_histogram_percentiles_are_exact(self):
        """Post-merge percentiles must equal those of a registry that
        observed every value directly — merge is full-fidelity, not a
        summary-of-summaries."""
        a, b, reference = (
            MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        )
        values_a = [float(v) for v in range(0, 50)]
        values_b = [float(v) for v in range(200, 275)]
        for v in values_a:
            a.histogram("latency").observe(v)
            reference.histogram("latency").observe(v)
        for v in values_b:
            b.histogram("latency").observe(v)
            reference.histogram("latency").observe(v)
        a.merge(b)
        merged = a.histogram("latency")
        expected = reference.histogram("latency")
        for q in (0.5, 0.9, 0.99):
            assert merged.percentile(q) == expected.percentile(q)
        assert merged.summary() == expected.summary()

    def test_label_collisions_fold_into_the_same_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("evals", worker="0").inc(2)
        b.counter("evals", worker="0").inc(5)
        b.counter("evals", worker="1").inc(1)
        a.merge(b)
        values = {
            tuple(sorted(labels.items())): metric.value
            for name, kind, labels, metric in a.series()
            if name == "evals"
        }
        assert values[(("worker", "0"),)] == 7.0
        assert values[(("worker", "1"),)] == 1.0

    def test_kind_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1.0)
        with pytest.raises(TypeError):
            a.merge(b)

    def test_dropped_series_accumulate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.dropped_series = 2
        b.dropped_series = 3
        a.merge(b)
        assert a.dropped_series == 5


class TestStateRoundTrip:
    def test_state_preserves_raw_histogram_values(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n", kind="a").inc(4)
        reg.gauge("g").set(2.5)
        for v in (1.0, 2.0, 9.0):
            reg.histogram("h").observe(v)
        path = tmp_path / "state.json"
        reg.write_state(path)
        rebuilt = MetricsRegistry.read_state(path)
        assert rebuilt.snapshot() == reg.snapshot()
        # Raw values survive, so further merges stay exact.
        assert rebuilt.histogram("h").values == [1.0, 2.0, 9.0]

    def test_from_state_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_state({"format": "bogus"})


class TestCardinalityOverflowSelfMetric:
    def test_overflow_increments_dropped_series_metric(self, capsys):
        reg = MetricsRegistry(max_series_per_name=2)
        for i in range(5):
            reg.counter("hot", key=str(i)).inc()
        snap = reg.snapshot()
        dropped = [
            c for c in snap["counters"]
            if c["name"] == "telemetry.dropped_series"
        ]
        assert len(dropped) == 1
        assert dropped[0]["labels"] == {"metric": "hot"}
        assert dropped[0]["value"] == 3.0
        assert snap["dropped_series"] == 3
        # The warning is written once per metric name, not per drop.
        err = capsys.readouterr().err
        assert err.count("label-cardinality cap") == 1


class TestPrometheusText:
    def test_exposition_format(self):
        from repro.telemetry import prometheus_text

        reg = MetricsRegistry()
        reg.counter("ccq.steps").inc(3)
        reg.gauge("ccq.layer_bits", layer="conv1").set(6)
        for v in (0.1, 0.2, 0.3):
            reg.histogram("probe.eval_s").observe(v)
        text = prometheus_text(reg.snapshot())
        assert "# TYPE ccq_steps counter" in text
        assert "ccq_steps 3" in text
        assert 'ccq_layer_bits{layer="conv1"} 6' in text
        assert "# TYPE probe_eval_s summary" in text
        assert 'probe_eval_s{quantile="0.5"} 0.2' in text
        assert "probe_eval_s_count 3" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        from repro.telemetry import prometheus_text

        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c\nd').inc()
        text = prometheus_text(reg.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
