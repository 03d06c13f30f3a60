"""Live metrics & telemetry for the benchmark's moving parts.

The paper defines MLPerf Inference by its statistical methodology -
tail-latency percentiles, QPS, per-scenario metrics (Table V) - but a
run you can only analyse *after* it finishes is not an observable
system.  This package is the runtime half of that story: dependency-free
:class:`Counter` / :class:`Gauge` / :class:`Histogram` primitives, a
:class:`MetricsRegistry` of labeled families, a periodic
:class:`SnapshotSampler` driven by the run's own event loop (virtual or
wall clock), and Prometheus-text / JSON / terminal exporters.

Layering: ``repro.metrics`` imports nothing from the rest of the repo
but the ``repro.bounds`` range check (itself a leaf), so every layer - LoadGen drivers, the network server, the fault
wrappers, the harness - can depend on it.  Instrumented code takes an
*optional* registry.  Most of what it exports it never writes: a layer
counts an event once, in its own ``*Stats`` ledger, and
:func:`export_ledger` publishes the :func:`exported` fields as callback
counters the registry reads when collected.  What is written at the
event (a histogram observation, a counter labelled by the event) sits
behind one predicate test, so an un-observed run pays that test and
nothing more.

See ``docs/observability.md`` for the metric catalog (every name, type,
label, and emitting code path) and worked examples.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "export": (
        "render_histogram", "render_table", "to_json", "to_prometheus_text",
    ),
    "ledger": ("export_ledger", "exported"),
    "primitives": (
        "DEFAULT_BASE", "DEFAULT_BUCKETS", "DEFAULT_GROWTH", "Counter",
        "Gauge", "Histogram",
    ),
    "registry": (
        "CounterFamily", "GaugeFamily", "HistogramFamily", "MetricFamily",
        "MetricsRegistry", "series_key",
    ),
    "snapshot": (
        "DEFAULT_QUANTILES", "Snapshot", "SnapshotSampler", "capture",
    ),
})
