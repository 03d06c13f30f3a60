"""MetricsRegistry and family semantics: labels, idempotency, keys."""

import pytest

from repro.metrics import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    capture,
    series_key,
    to_prometheus_text,
)


class TestSeriesKey:
    def test_label_free(self):
        assert series_key("up", {}) == "up"

    def test_labels_render_in_given_order(self):
        key = series_key("lat", {"scenario": "server", "kind": "x"})
        assert key == 'lat{scenario="server",kind="x"}'


class TestFamilies:
    def test_label_children_are_distinct_and_cached(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", labels=("path",))
        a = fam.labels(path="/a")
        b = fam.labels(path="/b")
        assert a is not b
        assert fam.labels(path="/a") is a
        a.inc()
        assert a.value == 1.0
        assert b.value == 0.0

    def test_wrong_label_set_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", labels=("path",))
        with pytest.raises(ValueError):
            fam.labels(verb="GET")
        with pytest.raises(ValueError):
            fam.labels()
        with pytest.raises(ValueError):
            fam.labels(path="/a", verb="GET")

    def test_label_free_family_acts_as_its_child(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc(2)
        assert c.value == 2.0
        g = reg.gauge("depth")
        g.set(5)
        assert g.value == 5.0

    def test_labeled_family_rejects_direct_writes(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", labels=("path",))
        with pytest.raises(ValueError):
            fam.inc()

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        fam = reg.counter("per_worker_total", labels=("worker",))
        fam.labels(worker=3).inc()
        assert fam.labels(worker="3").value == 1.0

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labels=("bad-label",))
        with pytest.raises(ValueError):
            CounterFamily("x_total", "", label_names=("a", "a"))

    def test_callback_gauge_cannot_be_labeled(self):
        with pytest.raises(ValueError):
            GaugeFamily("g", "", label_names=("x",), fn=lambda: 0)
        with pytest.raises(ValueError):
            CounterFamily("c_total", "", label_names=("x",), fn=lambda: 0)

    def test_a_histogram_has_no_callback_form(self):
        fam = HistogramFamily("sizes", "", label_names=("x",))
        with pytest.raises(ValueError):
            fam.labels_fn(lambda: 0, x=1)

    def test_histogram_family_custom_bucketing(self):
        fam = HistogramFamily("sizes", "", base=1.0, growth=2.0, buckets=8)
        child = fam.labels()
        child.observe(100.0)
        assert child.bucket_upper(0) == 1.0


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("events_total", "first help")
        b = reg.counter("events_total", "second help ignored")
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_label_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("thing_total", labels=("b",))
        with pytest.raises(ValueError):
            reg.counter("thing_total")

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zz_total")
        reg.gauge("aa_depth")
        assert [f.name for f in reg.collect()] == ["aa_depth", "zz_total"]

    def test_label_free_series_materialize_at_registration(self):
        """Zero-valued and callback series must export without ever
        being written - the registry materializes the single child."""
        reg = MetricsRegistry()
        reg.counter("never_bumped_total")
        reg.gauge("live_depth", fn=lambda: 42)
        series = {
            series_key(f.name, labels): child
            for f in reg.collect()
            for labels, child in f.series()
        }
        assert series["never_bumped_total"].value == 0.0
        assert series["live_depth"].value == 42.0

    def test_callback_counters_export_as_counters(self):
        ledger = {"plain": 2, "r0": 5}
        reg = MetricsRegistry()
        reg.counter("plain_total", "read, not written",
                    fn=lambda: ledger["plain"])
        reg.counter("by_replica_total", labels=("replica",)).labels_fn(
            lambda: ledger["r0"], replica=0)
        assert reg.get("plain_total").value == 2.0
        with pytest.raises(ValueError):
            reg.get("plain_total").inc()
        text = to_prometheus_text(reg)
        assert "# TYPE plain_total counter\nplain_total 2\n" in text
        assert ("# TYPE by_replica_total counter\n"
                'by_replica_total{replica="0"} 5\n') in text
        assert capture(reg, 0.0).values == {
            'by_replica_total{replica="0"}': 5.0, "plain_total": 2.0}

    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_a_newer_callback_takes_over_the_series(self, kind):
        reg = MetricsRegistry()
        register = getattr(reg, kind)
        first = register("owned", fn=lambda: 1)
        assert register("owned", fn=lambda: 2) is first
        assert first.value == 2.0
        by_label = register("owned_by", labels=("replica",))
        child = by_label.labels_fn(lambda: 10, replica=3)
        assert by_label.labels_fn(lambda: 20, replica=3) is child
        assert child.value == 20.0
        # Fetching the family without a callback leaves the binding be.
        assert register("owned").value == 2.0

    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_a_written_series_cannot_become_a_callback(self, kind):
        reg = MetricsRegistry()
        register = getattr(reg, kind)
        write = "inc" if kind == "counter" else "set"
        getattr(register("written"), write)(1)
        with pytest.raises(ValueError):
            register("written", fn=lambda: 0)
        by_label = register("written_by", labels=("replica",))
        getattr(by_label.labels(replica=1), write)(1)
        with pytest.raises(ValueError):
            by_label.labels_fn(lambda: 0, replica=1)

    def test_labeled_families_start_empty(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", labels=("path",))
        assert list(fam.series()) == []
