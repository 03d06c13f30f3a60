"""Snapshot capture and the loop-driven sampler, incl. determinism."""

import pytest

from repro.core.events import EventLoop, VirtualClock
from repro.metrics import MetricsRegistry, SnapshotSampler, capture


def make_registry():
    reg = MetricsRegistry()
    reg.counter("events_total").inc(3)
    reg.gauge("depth").set(2)
    h = reg.histogram("lat_seconds").labels()
    for v in (0.001, 0.002, 0.004):
        h.observe(v)
    return reg


class TestCapture:
    def test_flattens_counters_and_gauges(self):
        snap = capture(make_registry(), time=1.5)
        assert snap.time == 1.5
        assert snap.values["events_total"] == 3.0
        assert snap.values["depth"] == 2.0

    def test_histogram_expands_to_count_sum_quantiles(self):
        snap = capture(make_registry(), time=0.0)
        assert snap.values["lat_seconds_count"] == 3.0
        assert snap.values["lat_seconds_sum"] == pytest.approx(0.007)
        for suffix in ("p50", "p90", "p99", "p999"):
            assert f"lat_seconds_{suffix}" in snap.values

    def test_get_with_default(self):
        snap = capture(make_registry(), time=0.0)
        assert snap.get("events_total") == 3.0
        assert snap.get("missing", default=-1.0) == -1.0


class TestSampler:
    def test_ticks_at_exact_period_on_virtual_clock(self):
        reg = MetricsRegistry()
        counter = reg.counter("ticks_total")
        loop = EventLoop(VirtualClock())
        sampler = SnapshotSampler(reg, period=0.5)

        remaining = [6]

        def work():
            counter.inc()
            remaining[0] -= 1
            if remaining[0]:
                loop.schedule_after(0.4, work)

        loop.schedule_after(0.4, work)
        sampler.start(loop, keep_going=lambda: remaining[0] > 0)
        loop.run()

        times = [s.time for s in sampler.snapshots]
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        # Monotone counter readings, ending at the final value.
        readings = [s.values["ticks_total"] for s in sampler.snapshots]
        assert readings == sorted(readings)
        assert readings[-1] == 6.0

    def test_keep_going_false_takes_final_snapshot_then_stops(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        loop = EventLoop(VirtualClock())
        sampler = SnapshotSampler(reg, period=1.0)
        sampler.start(loop, keep_going=lambda: False)
        loop.run()
        # Baseline at t=0 plus the single tick at t=1 that observed the
        # stop condition; the loop then drains instead of running forever.
        assert [s.time for s in sampler.snapshots] == [0.0, 1.0]
        assert loop.now == 1.0

    def test_stop_cancels_pending_tick(self):
        reg = MetricsRegistry()
        loop = EventLoop(VirtualClock())
        sampler = SnapshotSampler(reg, period=1.0)
        sampler.start(loop)
        sampler.stop()
        loop.run()
        assert [s.time for s in sampler.snapshots] == [0.0]

    def test_sample_now_appends(self):
        reg = MetricsRegistry()
        loop = EventLoop(VirtualClock())
        sampler = SnapshotSampler(reg, period=1.0)
        sampler.start(loop, keep_going=lambda: False)
        loop.run()
        before = len(sampler.snapshots)
        sampler.sample_now()
        assert len(sampler.snapshots) == before + 1

    def test_double_start_raises(self):
        loop = EventLoop(VirtualClock())
        sampler = SnapshotSampler(MetricsRegistry(), period=1.0)
        sampler.start(loop)
        with pytest.raises(RuntimeError):
            sampler.start(loop)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            SnapshotSampler(MetricsRegistry(), period=0.0)


class TestDeterminism:
    """The ISSUE's bugfix criterion: no wall-time on the virtual path."""

    def run_once(self):
        from repro.core import Scenario, TestSettings, run_benchmark
        from repro.harness.netbench import SyntheticQSL
        from repro.network.simulated import ChannelModel, SimulatedChannelSUT
        from repro.sut.echo import EchoSUT

        settings = TestSettings(
            scenario=Scenario.SERVER,
            server_target_qps=300.0,
            server_latency_bound=0.1,
            min_query_count=150,
            min_duration=0.0,
            watchdog_timeout=60.0,
        )
        registry = MetricsRegistry()
        sut = SimulatedChannelSUT(
            EchoSUT(latency=0.002),
            ChannelModel(latency=0.0005, jitter=0.0002, seed=5),
        )
        result = run_benchmark(
            sut, SyntheticQSL(), settings,
            registry=registry, snapshot_period=0.05,
        )
        assert result.valid
        return result.snapshots

    def test_repeat_runs_produce_identical_snapshot_series(self):
        first = self.run_once()
        second = self.run_once()
        assert first is not None and len(first) > 3
        assert [s.time for s in first] == [s.time for s in second]
        assert [s.values for s in first] == [s.values for s in second]
