"""ChaosSchedule / ChaosOrchestrator / DegradedSUT: seeded chaos drills."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QuerySample
from repro.durability import run_fingerprint
from repro.faults import (
    CHAOS_KINDS,
    ChaosEvent,
    ChaosOrchestrator,
    ChaosSchedule,
    DegradedSUT,
)
from repro.fleet import ReplicaSet
from repro.metrics import MetricsRegistry

from tests.conftest import EchoQSL, FixedLatencySUT, valve_healthy


def server_settings(queries=400, qps=200.0, bound=0.2, seed=0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=60.0, seed=seed,
    )


def one_query(query_id=1):
    return Query(id=query_id,
                 samples=(QuerySample(id=query_id, index=0),))


def started_valve(latency=0.010):
    loop = EventLoop(VirtualClock())
    valve = DegradedSUT(FixedLatencySUT(latency=latency))
    deliveries = []
    valve.start_run(loop, lambda q, r: deliveries.append((loop.now, q, r)))
    return loop, valve, deliveries


class TestDegradedSUT:
    def test_healthy_valve_is_transparent(self):
        loop, valve, deliveries = started_valve()
        valve.issue_query(one_query())
        loop.run()
        assert len(deliveries) == 1
        assert deliveries[0][0] == pytest.approx(0.010)
        assert valve.slowed == 0 and valve.blackholed == 0

    def test_degrade_stretches_deliveries_proportionally(self):
        loop, valve, deliveries = started_valve()
        valve.degrade(3.0)
        valve.issue_query(one_query())
        loop.run()
        # 10 ms of backend time is held back by (3 - 1) * 10 ms more.
        assert deliveries[0][0] == pytest.approx(0.030)
        assert valve.slowed == 1
        assert not valve_healthy(valve)

    def test_partition_drops_deliveries_but_accepts_issues(self):
        loop, valve, deliveries = started_valve()
        valve.partition()
        valve.issue_query(one_query(1))
        loop.run()
        assert deliveries == []
        assert valve.blackholed == 1
        assert valve.inner.issued == 1
        # Recovery heals future queries; the dropped one stays dropped.
        valve.restore()
        valve.issue_query(one_query(2))
        loop.run()
        assert [q.id for _, q, _ in deliveries] == [2]
        assert valve_healthy(valve)

    def test_degrade_validates_the_factor(self):
        with pytest.raises(ValueError, match="factor"):
            DegradedSUT(FixedLatencySUT()).degrade(0.5)

    def test_start_run_resets_to_healthy(self):
        loop, valve, _ = started_valve()
        valve.degrade(8.0)
        valve.partition()
        valve.start_run(loop, lambda q, r: None)
        assert valve_healthy(valve)


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        kwargs = dict(duration=2.0, replicas=4, zones=2, events=5)
        assert (ChaosSchedule.generate(17, **kwargs).events
                == ChaosSchedule.generate(17, **kwargs).events)
        assert (ChaosSchedule.generate(17, **kwargs).events
                != ChaosSchedule.generate(18, **kwargs).events)

    def test_generated_windows_land_inside_the_run(self):
        schedule = ChaosSchedule.generate(
            3, duration=2.0, replicas=4, zones=2, events=12)
        assert len(schedule.events) == 12
        for event in schedule.events:
            assert event.kind in CHAOS_KINDS
            assert 0.2 <= event.time <= 1.2
            assert event.time + event.duration <= 2.0 * 0.85 + 1e-9
            if event.kind == "zone-outage":
                assert event.target in ("z0", "z1")
            else:
                replica = int(event.target.split(":", 1)[1])
                assert 0 <= replica < 4
            if event.kind == "gray-failure":
                assert 4.0 <= event.severity <= 16.0
        assert list(schedule.events) == sorted(schedule.events)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosSchedule((ChaosEvent(0.1, 0.1, "meteor", "z0"),))
        with pytest.raises(ValueError, match="duration"):
            ChaosSchedule((ChaosEvent(0.1, 0.0, "zone-outage", "z0"),))
        with pytest.raises(ValueError, match="severity"):
            ChaosSchedule(
                (ChaosEvent(0.1, 0.1, "gray-failure", "replica:0", 0.5),))
        with pytest.raises(ValueError, match="replica:N"):
            ChaosSchedule((ChaosEvent(0.1, 0.1, "partition", "z0"),))


def build_chaos_fleet(schedule, *, replicas=4, zones=2, seed=0,
                      registry=None, latency=0.002):
    orchestrator = ChaosOrchestrator(schedule, registry=registry)
    fleet = ReplicaSet(
        orchestrator.wrap_factory(
            lambda i: FixedLatencySUT(latency=latency)),
        initial_replicas=replicas, zones=zones, policy="zone-spread",
        seed=seed, registry=registry)
    orchestrator.bind(fleet)
    return orchestrator, fleet


class TestOrchestrator:
    SCHEDULE = ChaosSchedule((
        ChaosEvent(0.30, 0.40, "gray-failure", "replica:1", 10.0),
        ChaosEvent(0.60, 0.50, "zone-outage", "z0"),
        ChaosEvent(0.90, 0.30, "partition", "replica:3"),
    ))

    def test_unbound_orchestrator_refuses_to_start(self):
        orchestrator = ChaosOrchestrator(self.SCHEDULE)
        with pytest.raises(ValueError, match="bind"):
            orchestrator.start(EventLoop(VirtualClock()), lambda: False)

    def test_missing_valves_are_rejected(self):
        orchestrator = ChaosOrchestrator(self.SCHEDULE)
        fleet = ReplicaSet(lambda i: FixedLatencySUT(),
                           initial_replicas=4)
        loop = EventLoop(VirtualClock())
        fleet.start_run(loop, lambda q, r: None)
        orchestrator.bind(fleet)
        with pytest.raises(ValueError, match="wrap_factory"):
            orchestrator.start(loop, lambda: False)

    def test_schedule_is_applied_and_recovered(self):
        registry = MetricsRegistry()
        orchestrator, fleet = build_chaos_fleet(
            self.SCHEDULE, registry=registry)
        result = run_benchmark(
            fleet, EchoQSL(), server_settings(), services=[orchestrator],
            registry=registry)
        # Partition on replica 3 drops deliveries: those queries miss
        # their attempt deadline and reroute; zero are lost.
        assert len(result.log.completed_records()) == 400
        assert not result.log.failed_records()
        applied = [(d.kind, d.target, d.action) for d in orchestrator.trace
                   if d.action != "hold"]
        assert applied == [
            ("gray-failure", "replica:1", "inject"),
            ("zone-outage", "z0", "inject"),
            ("gray-failure", "replica:1", "recover"),
            ("partition", "replica:3", "inject"),
            ("zone-outage", "z0", "recover"),
            ("partition", "replica:3", "recover"),
        ]
        assert orchestrator.active_faults == 0
        assert all(w.end is not None for w in orchestrator.windows)
        assert fleet.stats.zone_kills == 1
        assert orchestrator.degraded[1].slowed > 0
        assert orchestrator.degraded[3].blackholed > 0
        family = registry.get("chaos_injections_total")
        assert sum(child.value for _, child in family.series()) == 3.0

    def test_every_tick_emits_one_decision(self):
        orchestrator, fleet = build_chaos_fleet(self.SCHEDULE)
        run_benchmark(fleet, EchoQSL(), server_settings(),
                      services=[orchestrator])
        holds = [d for d in orchestrator.trace if d.action == "hold"]
        assert holds and all(
            (d.kind, d.target) == ("", "") for d in holds)
        # active counts are consistent along the trace.
        active = 0
        for decision in orchestrator.trace:
            if decision.action == "inject":
                active += 1
            elif decision.action == "recover":
                active -= 1
            assert decision.active == active

    def test_stop_closes_open_windows(self):
        orchestrator, fleet = build_chaos_fleet(ChaosSchedule((
            ChaosEvent(0.1, 500.0, "gray-failure", "replica:0", 4.0),)))
        loop = EventLoop(VirtualClock())
        fleet.start_run(loop, lambda q, r: None)
        orchestrator.start(loop, lambda: loop.now < 0.3)
        loop.run(until=0.4)
        assert orchestrator.active_faults == 1
        orchestrator.stop()
        assert orchestrator.active_faults == 0
        assert orchestrator.windows[0].end == pytest.approx(0.4)

    def test_same_seed_same_chaos_trace(self):
        def one_run():
            orchestrator, fleet = build_chaos_fleet(self.SCHEDULE, seed=13)
            result = run_benchmark(
                fleet, EchoQSL(), server_settings(seed=13),
                services=[orchestrator])
            return (orchestrator.trace,
                    [(w.kind, w.target, w.start, w.end)
                     for w in orchestrator.windows],
                    run_fingerprint(result))
        assert one_run() == one_run()
