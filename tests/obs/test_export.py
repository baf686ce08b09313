"""Exporter formats: Prometheus text, JSONL snapshots, Chrome traces."""

import json
import math
import re

import pytest

from repro.obs import (
    FreshnessTracker,
    JsonlSink,
    MetricsRegistry,
    Tracer,
    prometheus_text,
    registry_to_dict,
    write_chrome_trace,
)


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("updates_total").inc(7)
    reg.counter("net_messages_total", labels={"type": "UpdateMessage"}).inc(2)
    reg.gauge("savings_ratio").set(0.25)
    hist = reg.histogram("cycle_seconds", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(5.0)
    return reg


class TestPrometheusText:
    def test_type_lines_and_values(self):
        text = prometheus_text(populated_registry())
        assert "# TYPE updates_total counter" in text
        assert "updates_total 7.0" in text
        assert "# TYPE savings_ratio gauge" in text
        assert "savings_ratio 0.25" in text

    def test_labels_rendered(self):
        text = prometheus_text(populated_registry())
        assert 'net_messages_total{type="UpdateMessage"} 2.0' in text

    def test_histogram_exposition_is_cumulative(self):
        text = prometheus_text(populated_registry())
        assert 'cycle_seconds_bucket{le="0.1"} 1' in text
        assert 'cycle_seconds_bucket{le="1.0"} 1' in text
        assert 'cycle_seconds_bucket{le="+Inf"} 2' in text
        assert "cycle_seconds_sum 5.05" in text
        assert "cycle_seconds_count 2" in text

    def test_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("engine.phase-seconds").inc()
        assert "engine_phase_seconds 1.0" in prometheus_text(reg)

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("m", labels={"k": 'a"b\\c'}).inc()
        assert 'k="a\\"b\\\\c"' in prometheus_text(reg)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestPrometheusTextEdgeCases:
    """The exposition corners a scraper trips over: hostile label
    values, histograms nobody has observed yet, non-finite samples."""

    def test_newlines_in_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("m", labels={"k": "line1\nline2"}).inc()
        text = prometheus_text(reg)
        assert 'k="line1\\nline2"' in text
        # The escaped value must not break the one-sample-per-line
        # framing the format is built on.
        sample_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(sample_lines) == 1

    def test_mixed_hostile_label_value_round_trips(self):
        hostile = 'a\\"b\nc\\'
        reg = MetricsRegistry()
        reg.counter("m", labels={"k": hostile}).inc()
        (line,) = [
            ln
            for ln in prometheus_text(reg).splitlines()
            if not ln.startswith("#")
        ]
        quoted = re.search(r'k="((?:[^"\\]|\\.)*)"', line).group(1)
        unescaped = (
            quoted.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        # Unescaping in the wrong order corrupts trailing backslashes;
        # pin the exact value instead of just "contains".
        decoded = quoted.encode().decode("unicode_escape")
        assert decoded == hostile or unescaped == hostile

    def test_empty_histogram_still_emits_full_exposition(self):
        """A registered-but-never-observed histogram must expose zeroed
        buckets, sum and count — absence reads as a scrape failure."""
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        text = prometheus_text(reg)
        assert "# TYPE h histogram" in text
        assert 'h_bucket{le="1.0"} 0' in text
        assert 'h_bucket{le="2.0"} 0' in text
        assert 'h_bucket{le="+Inf"} 0' in text
        assert "h_sum 0" in text
        assert "h_count 0" in text

    def test_nan_and_infinite_gauges_use_prometheus_spelling(self):
        reg = MetricsRegistry()
        reg.gauge("g_nan").set(float("nan"))
        reg.gauge("g_inf").set(float("inf"))
        reg.gauge("g_ninf").set(float("-inf"))
        text = prometheus_text(reg)
        assert "g_nan NaN" in text
        assert "g_inf +Inf" in text
        assert "g_ninf -Inf" in text

    def test_leading_digit_names_get_underscore_prefix(self):
        reg = MetricsRegistry()
        reg.counter("95th_latency").inc()
        assert "_95th_latency 1.0" in prometheus_text(reg)

    def test_every_sample_line_is_well_formed(self):
        """Format fuzz: whatever the registry holds, each non-comment
        line must match ``name{labels} value`` with balanced quoting."""
        reg = MetricsRegistry()
        reg.counter("a b", labels={"x": 'q"q', "y": "n\nn"}).inc(3)
        reg.gauge("9lives").set(float("nan"))
        hist = reg.histogram("h", buckets=(0.5,), labels={"z": "\\"})
        hist.observe(0.1)
        pattern = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z0-9_:]+="(?:[^"\\\n]|\\.)*",?)*\})? '
            r"(NaN|[+-]Inf|[0-9eE+.-]+)$"
        )
        for line in prometheus_text(reg).splitlines():
            if line.startswith("#"):
                continue
            assert pattern.match(line), f"malformed exposition line: {line!r}"


@pytest.mark.usefixtures("full_tracking")
class TestFreshnessSeriesRoundTrip:
    """The new freshness histograms travel intact through both
    exporters: text exposition and the dict/JSONL snapshot."""

    def populated_tracker(self):
        reg = MetricsRegistry()
        tracker = FreshnessTracker(reg)
        tracker.stamp_report(1)
        tracker.end_cycle()
        tracker.end_cycle()  # one cycle of lag
        tracker.observe_delivered(qid=7, oid=1, sign=1)
        tracker.observe_committed([7])
        return reg, tracker

    def test_freshness_histograms_in_prometheus_text(self):
        reg, _tracker = self.populated_tracker()
        text = prometheus_text(reg)
        assert "# TYPE freshness_staleness_cycles histogram" in text
        line = (
            'freshness_staleness_cycles_bucket{polarity="positive",'
            'stage="delivery",le="1.0"} 1'
        )
        assert line in text
        assert (
            'freshness_staleness_cycles_count{polarity="positive",'
            'stage="commit"} 1' in text
        )
        assert "# TYPE freshness_staleness_seconds histogram" in text
        assert "# TYPE freshness_tracked_objects gauge" in text

    def test_text_and_dict_exporters_agree_on_counts(self):
        reg, _tracker = self.populated_tracker()
        text = prometheus_text(reg)
        snapshot = reg.to_dict()
        for series in snapshot["freshness_staleness_cycles"]["series"]:
            labels = series["labels"]
            expected = (
                f'freshness_staleness_cycles_count'
                f'{{polarity="{labels["polarity"]}",stage="{labels["stage"]}"}} '
                f'{series["count"]}'
            )
            assert expected in text

    def test_freshness_series_survive_jsonl(self, tmp_path):
        reg, _tracker = self.populated_tracker()
        sink = JsonlSink(tmp_path / "m.jsonl")
        sink.write(reg, timestamp=1.0)
        record = json.loads((tmp_path / "m.jsonl").read_text())
        cycles = record["metrics"]["freshness_staleness_cycles"]
        assert cycles["type"] == "histogram"
        delivery = next(
            s
            for s in cycles["series"]
            if s["labels"] == {"stage": "delivery", "polarity": "positive"}
        )
        assert delivery["count"] == 1
        assert delivery["sum"] == 1.0  # exactly one cycle of lag
        assert not math.isnan(delivery["mean"])


class TestDictAndJsonl:
    def test_registry_to_dict_matches_method(self):
        reg = populated_registry()
        assert registry_to_dict(reg) == reg.to_dict()

    def test_jsonl_sink_appends_parseable_lines(self, tmp_path):
        reg = populated_registry()
        sink = JsonlSink(tmp_path / "metrics.jsonl")
        sink.write(reg, timestamp=1.0)
        reg.counter("updates_total").inc()
        sink.write(reg, timestamp=2.0)

        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["t"] == 1.0
        assert first["metrics"]["updates_total"]["series"][0]["value"] == 7.0
        assert second["metrics"]["updates_total"]["series"][0]["value"] == 8.0

    def test_jsonl_sink_stamps_wall_clock_by_default(self, tmp_path):
        sink = JsonlSink(tmp_path / "m.jsonl")
        sink.write(MetricsRegistry())
        record = json.loads((tmp_path / "m.jsonl").read_text())
        assert record["t"] > 0


class TestChromeTraceFile:
    def test_written_file_loads_in_trace_viewer_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("cycle"):
            with tracer.span("join"):
                pass
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert {e["name"] for e in payload["traceEvents"]} == {"cycle", "join"}
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        assert payload["displayTimeUnit"] == "ms"
