"""``WindowedSUT``: effects, precedence, open and close, the values a
window may hold; and chaos events that overlap on one target."""

import math

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QuerySample
from repro.faults import (
    ChaosEvent,
    ChaosOrchestrator,
    ChaosSchedule,
    DegradedSUT,
    OutageSUT,
    Window,
    WindowedSUT,
)
from repro.fleet import ReplicaSet
from repro.fleet.replicaset import ReplicaHealth

from tests.conftest import EchoQSL, FixedLatencySUT, valve_healthy

NAN, INF = math.nan, math.inf
BACKEND = 0.010


def one_query(query_id):
    return Query(id=query_id, samples=(QuerySample(id=query_id, index=0),))


def started(valve):
    loop = EventLoop(VirtualClock())
    seen = []
    valve.start_run(loop, lambda q, r: seen.append((loop.now, q.id)))
    return loop, seen


def issue_at(loop, valve, at, query_id):
    loop.schedule(at, lambda: valve.issue_query(one_query(query_id)))


# -- effects and precedence ------------------------------------------------------

def test_a_fixed_window_refuses_inside_and_drops_deliveries_into_it():
    valve = WindowedSUT(FixedLatencySUT(BACKEND),
                        (Window(0.1, 0.2, "outage"),))
    loop, seen = started(valve)
    issue_at(loop, valve, 0.095, 1)   # delivered at 0.105: dropped
    issue_at(loop, valve, 0.15, 2)    # refused
    issue_at(loop, valve, 0.2, 3)     # the end is exclusive
    loop.run()
    assert seen == [(pytest.approx(0.21), 3)]
    assert valve.blackholed == 2 and valve.inner.issued == 2


def test_a_partition_drops_deliveries_but_forwards_issues():
    valve = WindowedSUT(FixedLatencySUT(BACKEND),
                        (Window(0.0, 0.5, "partition"),))
    loop, seen = started(valve)
    issue_at(loop, valve, 0.1, 1)
    loop.run()
    assert seen == [] and valve.inner.issued == 1 and valve.blackholed == 1


def test_a_dropping_window_wins_over_any_stretch():
    for dropper in ("outage", "partition"):
        valve = WindowedSUT(FixedLatencySUT(BACKEND), (
            Window(0.0, 1.0, "stretch", 4.0), Window(0.05, 1.0, dropper)))
        loop, seen = started(valve)
        issue_at(loop, valve, 0.045, 1)
        loop.run()
        assert seen == [] and valve.blackholed == 1 and valve.slowed == 0


def test_the_largest_stretch_applies():
    valve = WindowedSUT(FixedLatencySUT(BACKEND), (
        Window(0.0, 1.0, "stretch", 3.0), Window(0.0, 1.0, "stretch", 5.0),
        Window(0.0, 1.0, "stretch", 2.0)))
    loop, seen = started(valve)
    valve.issue_query(one_query(1))
    loop.run()
    assert seen == [(pytest.approx(5 * BACKEND), 1)] and valve.slowed == 1


def test_a_window_ahead_takes_effect_when_its_start_comes():
    valve = WindowedSUT(FixedLatencySUT(BACKEND),
                        (Window(0.3, INF, "stretch", 2.0),))
    loop, seen = started(valve)
    issue_at(loop, valve, 0.1, 1)
    issue_at(loop, valve, 0.295, 2)  # delivered at 0.305, stretched
    loop.run()
    assert seen == [(pytest.approx(0.11), 1), (pytest.approx(0.315), 2)]
    assert valve.slowed == 1 and len(valve.windows) == 1


def test_an_ended_window_is_forgotten():
    valve = OutageSUT(FixedLatencySUT(BACKEND), 0.1, 0.1)
    loop, seen = started(valve)
    issue_at(loop, valve, 0.25, 1)
    loop.run()
    assert len(seen) == 1 and valve.windows == [] and valve_healthy(valve)


def test_a_valve_with_nothing_ahead_forwards_without_its_loop():
    """Nothing in force and nothing ahead: a delivery goes straight on,
    with no clock read and no event."""

    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"the valve read loop.{name}")

    for valve in (DegradedSUT(FixedLatencySUT(BACKEND)),
                  OutageSUT(FixedLatencySUT(BACKEND), 0.0, 0.0)):
        _, seen = started(valve)
        valve._loop = Untouchable()
        valve._gate(one_query(1), [])
        assert seen == [(0.0, 1)]


# -- open and close ---------------------------------------------------------------

def test_open_and_close_act_from_that_instant_on():
    valve = WindowedSUT(FixedLatencySUT(BACKEND))
    loop, seen = started(valve)
    windows = []
    loop.schedule(0.005, lambda: windows.append(
        valve.open_window("stretch", 3.0)))
    valve.issue_query(one_query(1))   # in flight when the stretch opens
    loop.run()
    assert seen == [(pytest.approx(3 * BACKEND), 1)]
    (window,) = windows
    assert (window.start, window.end, window.effect) == (0.005, INF,
                                                         "stretch")
    valve.close_window(window)
    valve.issue_query(one_query(2))
    loop.run()
    assert seen[-1] == (pytest.approx(4 * BACKEND), 2)
    assert valve.windows == [] and valve_healthy(valve)
    valve.close_window(window)  # no longer held: ignored


def test_start_run_puts_back_the_fixed_windows_only():
    fixed = Window(0.5, 0.6, "outage")
    valve = WindowedSUT(FixedLatencySUT(BACKEND), (fixed,))
    started(valve)
    valve.open_window("partition")
    assert valve.windows == [fixed, Window(0.0, INF, "partition")]
    started(valve)
    assert valve.windows == [fixed]


def test_degrade_replaces_and_restore_closes_everything():
    valve = DegradedSUT(FixedLatencySUT(BACKEND))
    started(valve)
    valve.degrade(10.0)
    valve.degrade(3.0)
    valve.partition()
    assert sorted((w.effect, w.factor) for w in valve.windows) == [
        ("partition", 1.0), ("stretch", 3.0)]
    valve.restore()
    assert valve.windows == [] and valve_healthy(valve)


def test_degraded_sut_takes_no_factor():
    # start_run used to discard it silently.
    with pytest.raises(TypeError):
        DegradedSUT(FixedLatencySUT(BACKEND), factor=5.0)


# -- what a window may hold --------------------------------------------------------

@pytest.mark.parametrize("window, message", [
    (lambda: Window(0.0, 1.0, "meteor"), "unknown window effect"),
    (lambda: Window(NAN, 1.0, "outage"), "start must be finite"),
    (lambda: Window(INF, INF, "outage"), "start must be finite"),
    (lambda: Window(1.0, 0.5, "outage"), "end must be >= its start"),
    (lambda: Window(0.0, NAN, "partition"), "end must be >= its start"),
    (lambda: Window(0.0, 1.0, "stretch", 0.5), "factor must be >= 1"),
    (lambda: Window(0.0, 1.0, "stretch", NAN), "factor must be >= 1"),
    (lambda: Window(0.0, 1.0, "stretch", INF), "factor must be >= 1"),
])
def test_a_window_checks_its_values(window, message):
    with pytest.raises(ValueError, match=message):
        window()


@pytest.mark.parametrize("make, message", [
    (lambda: OutageSUT(FixedLatencySUT(), NAN, 1.0), "start must be finite"),
    (lambda: OutageSUT(FixedLatencySUT(), -INF, 1.0), "start must be finite"),
    (lambda: OutageSUT(FixedLatencySUT(), 0.0, NAN), "outage_duration"),
    (lambda: DegradedSUT(FixedLatencySUT()).degrade(NAN), "factor"),
    (lambda: DegradedSUT(FixedLatencySUT()).degrade(INF), "factor"),
])
def test_valves_reject_non_finite_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_an_infinite_outage_is_permanent():
    valve = OutageSUT(FixedLatencySUT(BACKEND), 0.1, INF)
    loop, seen = started(valve)
    issue_at(loop, valve, 0.0, 1)
    issue_at(loop, valve, 1e9, 2)
    loop.run()
    assert seen == [(pytest.approx(BACKEND), 1)] and valve.blackholed == 1


@pytest.mark.parametrize("event, message", [
    (ChaosEvent(NAN, 0.1, "zone-outage", "z0"), "start must be finite"),
    (ChaosEvent(INF, 0.1, "partition", "replica:0"), "start must be finite"),
    (ChaosEvent(0.1, NAN, "zone-outage", "z0"), "duration"),
    (ChaosEvent(0.1, INF, "partition", "replica:0"), "duration"),
    (ChaosEvent(0.1, 0.1, "gray-failure", "replica:0", NAN), "severity"),
    (ChaosEvent(0.1, 0.1, "gray-failure", "replica:0", INF), "factor"),
])
def test_chaos_events_reject_non_finite_values(event, message):
    with pytest.raises(ValueError, match=message):
        ChaosSchedule((event,))


@pytest.mark.parametrize("burst, message", [
    ((NAN, 1.0, 2.0), "burst start"),
    ((INF, 1.0, 2.0), "burst start"),
    ((0.0, NAN, 2.0), "burst duration"),
    ((0.0, INF, 2.0), "burst duration"),
    ((0.0, 1.0, NAN), "burst multiplier"),
    ((0.0, 1.0, INF), "burst multiplier"),
])
def test_rate_bursts_reject_non_finite_values(burst, message):
    with pytest.raises(ValueError, match=message):
        TestSettings(scenario=Scenario.SERVER, server_rate_bursts=(burst,))


# -- chaos events that overlap on one target ----------------------------------------

def chaos_fleet(*events):
    orchestrator = ChaosOrchestrator(ChaosSchedule(events))
    fleet = ReplicaSet(
        orchestrator.wrap_factory(lambda i: FixedLatencySUT(0.002)),
        initial_replicas=4, zones=2, policy="zone-spread", seed=0)
    orchestrator.bind(fleet)
    loop = EventLoop(VirtualClock())
    fleet.start_run(loop, lambda q, r: None)
    orchestrator.start(loop, lambda: loop.now < 1.0)
    return loop, orchestrator, fleet


def probe(loop, at, read):
    """``read()`` as it stood at run time ``at``."""
    seen = []
    loop.schedule(at, lambda: seen.append(read()))
    return seen


def test_a_gray_recovery_leaves_an_open_partition_in_place():
    loop, orchestrator, _ = chaos_fleet(
        ChaosEvent(0.1, 0.2, "partition", "replica:0"),
        ChaosEvent(0.15, 0.05, "gray-failure", "replica:0", 4.0))
    valve = orchestrator.degraded[0]
    mid = probe(loop, 0.26, lambda: valve_healthy(valve))
    after = probe(loop, 0.34, lambda: valve_healthy(valve))
    loop.run()
    # The gray window closes at the 0.225 tick, the partition at 0.325.
    assert mid == [False] and after == [True]
    assert [(w.kind, w.end) for w in orchestrator.windows] == [
        ("partition", pytest.approx(0.325)),
        ("gray-failure", pytest.approx(0.225))]


def test_two_gray_failures_on_one_replica_are_two_windows():
    loop, orchestrator, _ = chaos_fleet(
        ChaosEvent(0.1, 0.4, "gray-failure", "replica:1", 4.0),
        ChaosEvent(0.2, 0.1, "gray-failure", "replica:1", 8.0))
    valve = orchestrator.degraded[1]
    both = probe(loop, 0.26, lambda: orchestrator.active_faults)
    outer = probe(loop, 0.4, lambda: valve_healthy(valve))
    done = probe(loop, 0.6, lambda: valve_healthy(valve))
    loop.run()
    assert both == [2] and outer == [False] and done == [True]
    assert all(w.end is not None for w in orchestrator.windows)
    assert orchestrator.active_faults == 0


def test_a_zone_comes_back_when_its_last_outage_closes():
    loop, orchestrator, fleet = chaos_fleet(
        ChaosEvent(0.1, 0.4, "zone-outage", "z0"),
        ChaosEvent(0.2, 0.1, "zone-outage", "z0"))
    z0 = [r for r in fleet.replicas if r.zone == "z0"]
    health = lambda: {r.health for r in z0}  # noqa: E731
    inner = probe(loop, 0.4, health)
    after = probe(loop, 0.6, health)
    loop.run()
    assert inner == [{ReplicaHealth.DOWN}]
    assert after == [{ReplicaHealth.UP}]


def test_an_overlapping_schedule_runs_clean():
    orchestrator = ChaosOrchestrator(ChaosSchedule((
        ChaosEvent(0.3, 0.6, "gray-failure", "replica:1", 6.0),
        ChaosEvent(0.4, 0.2, "partition", "replica:1"),
        ChaosEvent(0.5, 0.3, "gray-failure", "replica:1", 10.0),
        ChaosEvent(0.5, 0.5, "zone-outage", "z0"),
        ChaosEvent(0.6, 0.2, "zone-outage", "z0"),
    )))
    fleet = ReplicaSet(
        orchestrator.wrap_factory(lambda i: FixedLatencySUT(0.002)),
        initial_replicas=4, zones=2, policy="zone-spread", seed=0)
    orchestrator.bind(fleet)
    result = run_benchmark(fleet, EchoQSL(), TestSettings(
        scenario=Scenario.SERVER, server_target_qps=200.0,
        server_latency_bound=0.2, min_query_count=400, min_duration=0.0,
        watchdog_timeout=60.0, seed=0), services=[orchestrator])
    assert len(result.log.completed_records()) == 400
    active = 0
    for decision in orchestrator.trace:
        active += {"inject": 1, "recover": -1}.get(decision.action, 0)
        assert decision.active == active
    assert active == 0 and orchestrator.active_faults == 0
    assert all(w.end is not None for w in orchestrator.windows)
    assert fleet.stats.zone_kills == 1
    assert all(v.windows == [] for v in orchestrator.degraded.values())
