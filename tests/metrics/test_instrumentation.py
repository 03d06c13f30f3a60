"""End-to-end wiring: the hot paths actually feed the registry.

Each test runs a real (virtual-time or localhost) benchmark with a
registry attached and cross-checks the live series against the ground
truth the run already keeps (QueryLog, ResilienceStats, server STATS).
"""

import json

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.trace import to_chrome_trace
from repro.faults import FaultPlan, FaultType, FaultySUT, ResilientSUT, RetryPolicy
from repro.harness.netbench import SyntheticQSL, run_over_localhost
from repro.harness.stack import EchoBackend, StackSpec, build
from repro.metrics import MetricsRegistry
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.sut.echo import EchoSUT


def server_settings(queries=200, qps=400.0):
    return TestSettings(
        scenario=Scenario.SERVER,
        server_target_qps=qps,
        server_latency_bound=0.1,
        min_query_count=queries,
        min_duration=0.0,
        watchdog_timeout=60.0,
    )


def series(registry):
    """Flatten the registry for assertion convenience."""
    from repro.metrics import capture

    return capture(registry, time=0.0).values


class TestLoadGenInstruments:
    def test_counters_match_the_query_log(self):
        registry = MetricsRegistry()
        result = run_benchmark(
            EchoSUT(latency=0.002), SyntheticQSL(), server_settings(),
            registry=registry,
        )
        assert result.valid
        values = series(registry)
        n = result.metrics.query_count
        assert values['loadgen_queries_issued_total{scenario="server"}'] == n
        assert values['loadgen_samples_issued_total{scenario="server"}'] == n
        assert (values['loadgen_queries_completed_total{scenario="server"}']
                == n)
        assert values['loadgen_queries_failed_total{scenario="server"}'] == 0
        assert values['loadgen_queries_outstanding'] == 0
        key = 'loadgen_query_latency_seconds{scenario="server"}'
        assert values[f"{key}_count"] == n
        # The histogram's p99 tracks the exact post-hoc metric within
        # the documented reconstruction bound (~4.4%).
        assert values[f"{key}_p99"] == pytest.approx(
            result.metrics.latency_p99, rel=0.05)

    def test_latency_histogram_mean_matches_metrics(self):
        registry = MetricsRegistry()
        result = run_benchmark(
            EchoSUT(latency=0.003), SyntheticQSL(),
            server_settings(queries=100), registry=registry,
        )
        hist = registry.get("loadgen_query_latency_seconds").labels(
            scenario="server")
        assert hist.mean == pytest.approx(result.metrics.latency_mean,
                                          rel=1e-9)

    def test_no_registry_means_no_overhead_objects(self):
        result = run_benchmark(
            EchoSUT(latency=0.001), SyntheticQSL(),
            server_settings(queries=50),
        )
        assert result.valid
        assert result.snapshots is None


class TestSnapshotsInResult:
    def test_snapshot_series_returned_and_monotone(self):
        registry = MetricsRegistry()
        result = run_benchmark(
            EchoSUT(latency=0.002), SyntheticQSL(), server_settings(),
            registry=registry, snapshot_period=0.05,
        )
        snaps = result.snapshots
        assert snaps is not None and len(snaps) >= 3
        times = [s.time for s in snaps]
        assert times == sorted(times)
        issued = [
            s.get('loadgen_queries_issued_total{scenario="server"}')
            for s in snaps
        ]
        assert issued == sorted(issued)
        assert issued[0] == 0.0
        assert issued[-1] == result.metrics.query_count

    def test_chrome_trace_gains_a_counter_track(self):
        registry = MetricsRegistry()
        result = run_benchmark(
            EchoSUT(latency=0.002), SyntheticQSL(),
            server_settings(queries=100),
            registry=registry, snapshot_period=0.05,
        )
        doc = json.loads(to_chrome_trace(result.log,
                                         snapshots=result.snapshots))
        events = doc["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "no counter events in the trace"
        assert all(e["pid"] == 3 for e in counters)
        metas = [e for e in events
                 if e["ph"] == "M" and e.get("pid") == 3]
        assert metas[0]["args"]["name"] == "metrics"
        # One event per series per snapshot.
        per_series = {}
        for e in counters:
            per_series.setdefault(e["name"], []).append(e)
        expected = len(result.snapshots)
        assert all(len(v) == expected for v in per_series.values())


class TestFaultAndResilienceInstruments:
    def test_fault_counters_match_injector_decisions(self):
        registry = MetricsRegistry()
        plan = FaultPlan(rates={FaultType.DROP: 0.1,
                                FaultType.DUPLICATE: 0.05}, seed=3)
        faulty = FaultySUT(EchoSUT(latency=0.002), plan, registry=registry)
        sut = ResilientSUT(faulty, RetryPolicy(attempt_timeout=0.05),
                           registry=registry)
        result = run_benchmark(sut, SyntheticQSL(),
                               server_settings(queries=200))
        assert result.valid
        values = series(registry)
        drops = values.get('faults_injected_total{fault="drop"}', 0)
        assert drops > 0
        # Every dropped attempt forces a retry; duplicates are filtered.
        assert values["resilient_retries_total"] == sut.stats.retries
        assert (values["resilient_recovered_queries_total"]
                == sut.stats.recovered_queries)
        assert (values["resilient_filtered_completions_total"]
                == sut.stats.filtered_completions)
        assert values["resilient_retries_total"] >= drops

    def test_gave_up_counter(self):
        registry = MetricsRegistry()
        plan = FaultPlan(rates={FaultType.DROP: 1.0}, seed=1)
        faulty = FaultySUT(EchoSUT(latency=0.001), plan)
        sut = ResilientSUT(
            faulty, RetryPolicy(max_attempts=2, attempt_timeout=0.01),
            registry=registry)
        result = run_benchmark(sut, SyntheticQSL(),
                               server_settings(queries=20, qps=100.0))
        assert not result.valid
        values = series(registry)
        assert values["resilient_gave_up_queries_total"] == 20
        assert values["resilient_gave_up_queries_total"] == (
            sut.stats.gave_up_queries)


class TestSimulatedChannelRun:
    def test_registry_flows_through_a_built_channel_stack(self):
        registry = MetricsRegistry()
        stack = build(StackSpec(EchoBackend(0.002),
                                channel=ChannelModel(latency=0.0005)),
                      2, registry)
        result = stack.run(SyntheticQSL(), server_settings(queries=150),
                           registry=registry, snapshot_period=0.05)
        assert result.valid
        values = series(registry)
        assert (values['loadgen_queries_issued_total{scenario="server"}']
                == 150)
        assert result.snapshots is not None


@pytest.mark.socket
class TestServerInstruments:
    def test_localhost_run_feeds_server_series(self):
        registry = MetricsRegistry()
        bundle = run_over_localhost(
            lambda: EchoSUT(latency=0.001),
            SyntheticQSL(),
            server_settings(queries=100, qps=200.0), registry=registry,
        )
        assert bundle.valid
        values = series(registry)
        stats = bundle.server_stats
        assert values["server_connections_total"] >= 1
        assert values["server_queries_received_total"] == 100
        assert values["server_queries_completed_total"] == 100
        assert values["server_queries_rejected_total"] == float(
            stats["rejected"])
        assert values["server_batches_total"] > 0
        assert values["server_batch_size_samples_count"] == values[
            "server_batches_total"]
        assert values["server_queue_wait_seconds_count"] == 100
        # Gauges read live state; after the run everything has drained.
        assert values["server_queue_depth"] == 0
        assert values["server_workers_busy"] == 0
        busy = [
            (labels, child)
            for labels, child in registry.get(
                "server_worker_busy_seconds_total").series()
        ]
        assert len(busy) == 2
        assert all(child.value >= 0.0 for _, child in busy)
