"""Autoscaler: watermark hysteresis, cooldown, determinism."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QuerySample
from repro.fleet import Autoscaler, AutoscalerPolicy, ReplicaSet
from repro.fleet.replica import ReplicaHealth
from repro.metrics import MetricsRegistry

from tests.conftest import EchoQSL, FixedLatencySUT


def server_settings(queries=300, qps=200.0, bound=1.0, seed=0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=60.0, seed=seed,
    )


def slow_fleet(**kwargs):
    kwargs.setdefault("initial_replicas", 1)
    kwargs.setdefault("max_replicas", 8)
    kwargs.setdefault("attempt_timeout", 2.0)
    return ReplicaSet(lambda i: FixedLatencySUT(latency=0.050), **kwargs)


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="period"):
            AutoscalerPolicy(period=0.0)
        with pytest.raises(ValueError, match="high_watermark"):
            AutoscalerPolicy(high_watermark=1.0, low_watermark=1.0)
        with pytest.raises(ValueError, match="cooldown"):
            AutoscalerPolicy(cooldown=-1.0)


class TestScalingBehavior:
    def test_backlog_triggers_scale_up(self):
        # One 50 ms-latency replica at 200 qps drowns instantly; the
        # autoscaler must grow the fleet to absorb the backlog.
        fleet = slow_fleet()
        scaler = Autoscaler(fleet, AutoscalerPolicy(
            period=0.050, high_watermark=3.0, low_watermark=0.5,
            cooldown=0.100))
        result = run_benchmark(fleet, EchoQSL(), server_settings(),
                               services=[scaler])
        assert result.valid
        ups = [d for d in scaler.trace if d.action == "up"]
        assert ups
        assert max(d.replicas_after for d in scaler.trace) > 1

    def test_idle_fleet_scales_down_to_the_floor(self):
        fleet = slow_fleet(initial_replicas=4)
        scaler = Autoscaler(fleet, AutoscalerPolicy(
            period=0.050, high_watermark=50.0, low_watermark=1.0,
            cooldown=0.0))
        # Light load: 4 replicas are far more than needed.
        result = run_benchmark(
            fleet, EchoQSL(),
            server_settings(queries=200, qps=20.0),
            services=[scaler])
        assert result.valid
        assert any(d.action == "down" for d in scaler.trace)
        assert scaler.trace[-1].replicas_after == 1

    def test_cooldown_separates_actions(self):
        fleet = slow_fleet()
        cooldown = 0.200
        scaler = Autoscaler(fleet, AutoscalerPolicy(
            period=0.050, high_watermark=2.0, low_watermark=0.1,
            cooldown=cooldown))
        run_benchmark(fleet, EchoQSL(), server_settings(),
                      services=[scaler])
        actions = [d.time for d in scaler.trace if d.action != "hold"]
        assert len(actions) >= 2
        gaps = [b - a for a, b in zip(actions, actions[1:])]
        assert all(gap >= cooldown - 1e-9 for gap in gaps)

    def test_holds_between_watermarks(self):
        fleet = slow_fleet(initial_replicas=1, max_replicas=1)
        scaler = Autoscaler(fleet, AutoscalerPolicy(
            period=0.050, high_watermark=1e9, low_watermark=0.0,
            cooldown=0.0))
        # Watermarks nothing can cross, and an idle tick's signal of 0
        # finds the one replica at the floor: every tick must be a hold.
        run_benchmark(fleet, EchoQSL(), server_settings(queries=100),
                      services=[scaler])
        assert scaler.trace
        assert all(d.action == "hold" for d in scaler.trace)
        assert all(d.replicas_before == d.replicas_after
                   for d in scaler.trace)


class TestDeterminism:
    def test_trace_is_bit_identical_across_same_seed_runs(self):
        def one_trace():
            fleet = slow_fleet(seed=5)
            scaler = Autoscaler(fleet, AutoscalerPolicy(
                period=0.050, high_watermark=3.0, low_watermark=0.5,
                cooldown=0.100))
            run_benchmark(fleet, EchoQSL(), server_settings(seed=5),
                          services=[scaler])
            return scaler.trace
        trace_a, trace_b = one_trace(), one_trace()
        assert trace_a == trace_b
        assert any(d.action != "hold" for d in trace_a)


class TestMetrics:
    def test_autoscaler_families_light_up(self):
        registry = MetricsRegistry()
        fleet = slow_fleet()
        scaler = Autoscaler(fleet, AutoscalerPolicy(
            period=0.050, high_watermark=3.0, low_watermark=0.5,
            cooldown=0.100), registry=registry)
        run_benchmark(fleet, EchoQSL(), server_settings(),
                      services=[scaler])
        actions = registry.get("autoscaler_actions_total")
        total = sum(child.value for _, child in actions.series())
        assert total == len(scaler.trace)
        assert registry.get("autoscaler_replicas").value >= 1.0


class TestAllDownFleet:
    """The max(1, available) clamp and recovery from a dead fleet."""

    @staticmethod
    def _drowned_dead_fleet(queries):
        # Queries in flight, then every replica marked DOWN underneath
        # them (breaker storms / chaos can strand a fleet this way).
        fleet = slow_fleet(initial_replicas=2)
        loop = EventLoop(VirtualClock())
        fleet.start_run(loop, lambda q, r: None)
        for qid in range(queries):
            fleet.issue_query(Query(
                id=qid, samples=(QuerySample(qid * 10, 0),),
                issue_time=0.0))
        for replica in fleet.replicas:
            replica.health = ReplicaHealth.DOWN
        assert fleet.available_replicas == []
        return fleet, loop

    def test_signal_clamps_with_zero_available_replicas(self):
        fleet, loop = self._drowned_dead_fleet(queries=3)
        scaler = Autoscaler(fleet)
        # 3 outstanding / max(1, 0 available): finite, not a crash -
        # the stranded backlog reads as a one-replica fleet's load.
        assert scaler.signal_source.sample(loop.now) == 3.0

    def test_tick_scales_up_an_all_down_fleet(self):
        fleet, loop = self._drowned_dead_fleet(queries=8)
        scaler = Autoscaler(fleet, AutoscalerPolicy(
            period=0.010, high_watermark=2.0, low_watermark=0.5,
            cooldown=0.0))
        scaler.start(loop, keep_going=lambda: False)
        loop.run(until=0.020)  # exactly one tick fires
        assert scaler.trace
        decision = scaler.trace[-1]
        assert decision.signal == 8.0
        assert decision.action == "up"
        assert decision.replicas_before == 0
        assert len(fleet.available_replicas) == 1
