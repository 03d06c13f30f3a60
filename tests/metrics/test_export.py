"""Exporters: Prometheus exposition, JSON, terminal rendering."""

import json

import pytest

from repro.metrics import (
    MetricsRegistry,
    render_histogram,
    render_table,
    to_json,
    to_prometheus_text,
)
from repro.metrics.export import SKETCH_WIDTH


def make_registry():
    reg = MetricsRegistry()
    reg.counter("queries_total", "Queries seen",
                labels=("scenario",)).labels(scenario="server").inc(10)
    reg.gauge("depth", "Queue depth").set(4)
    h = reg.histogram("lat_seconds", "Latency", base=1e-3, growth=2.0,
                      buckets=8).labels()
    for v in (0.002, 0.002, 0.004, 0.05):
        h.observe(v)
    return reg


class TestPrometheusText:
    def test_headers_and_scalar_lines(self):
        text = to_prometheus_text(make_registry())
        assert "# HELP queries_total Queries seen" in text
        assert "# TYPE queries_total counter" in text
        assert 'queries_total{scenario="server"} 10' in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = to_prometheus_text(make_registry())
        lines = [l for l in text.splitlines() if l.startswith("lat_seconds")]
        bucket_lines = [l for l in lines if "_bucket" in l]
        counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert bucket_lines[-1].startswith('lat_seconds_bucket{le="+Inf"}')
        assert counts[-1] == 4

    def test_sum_and_count_use_prometheus_naming(self):
        """The suffix goes on the metric name, before the label braces."""
        text = to_prometheus_text(make_registry())
        assert "lat_seconds_sum 0.058" in text
        assert "lat_seconds_count 4" in text
        labeled = MetricsRegistry()
        labeled.histogram("rt_seconds", labels=("path",)).labels(
            path="/a").observe(1.0)
        ltext = to_prometheus_text(labeled)
        assert 'rt_seconds_sum{path="/a"} 1' in ltext
        assert 'rt_seconds_count{path="/a"} 1' in ltext
        assert '}_sum' not in ltext and '}_count' not in ltext

    def test_empty_registry_renders_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""


class TestJson:
    def test_round_trips_through_json_loads(self):
        doc = json.loads(to_json(make_registry()))
        by_name = {f["name"]: f for f in doc["metrics"]}
        assert by_name["queries_total"]["type"] == "counter"
        assert by_name["queries_total"]["series"][0]["value"] == 10

    def test_histogram_entry_is_complete_and_finite(self):
        doc = json.loads(to_json(make_registry()))
        hist = next(f for f in doc["metrics"] if f["name"] == "lat_seconds")
        series = hist["series"][0]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(0.058)
        assert set(series["quantiles"]) == {"p50", "p90", "p99", "p999"}
        # The overflow bucket's edge must serialize as a *string* so the
        # document stays valid JSON even when that bucket is occupied.
        overflow = MetricsRegistry()
        h = overflow.histogram("big", base=1.0, growth=2.0,
                               buckets=2).labels()
        h.observe(1e12)
        odoc = json.loads(to_json(overflow))
        le = odoc["metrics"][0]["series"][0]["buckets"][-1]["le"]
        assert le == "+Inf"


class TestRendering:
    def test_render_table_shows_all_series(self):
        text = render_table(make_registry())
        assert 'queries_total{scenario="server"}' in text
        assert "depth" in text
        assert "lat_seconds" in text
        assert "p99" in text

    def test_render_histogram_sketch(self):
        reg = make_registry()
        h = reg.get("lat_seconds").labels()
        sketch = render_histogram("lat_seconds", h)
        assert "count=4" in sketch
        assert "p50=" in sketch
        # The bar body is bounded by SKETCH_WIDTH.
        bar_line = [l for l in sketch.splitlines() if "|" in l][0]
        assert 0 < len(bar_line.split("|")[1]) <= SKETCH_WIDTH

    def test_render_table_empty_registry(self):
        assert render_table(MetricsRegistry()).strip() == ""
