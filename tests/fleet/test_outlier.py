"""OutlierDetector: gray-failure ejection, probation, rescue warming."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QuerySample, SessionTurn
from repro.durability import run_fingerprint
from repro.faults import DegradedSUT
from repro.fleet import (
    OutlierDetector,
    OutlierPolicy,
    ReplicaHealth,
    ReplicaSet,
)
from repro.metrics import MetricsRegistry
from repro.sessions import per_replica_cache_factory

from tests.conftest import EchoQSL, FixedLatencySUT


def server_settings(queries=400, qps=200.0, bound=0.2, seed=0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=60.0, seed=seed,
    )


def started_fleet(n=4, latency=0.004, **kwargs):
    loop = EventLoop(VirtualClock())
    fleet = ReplicaSet(lambda i: FixedLatencySUT(latency=latency),
                       initial_replicas=n, **kwargs)
    responses = []
    fleet.start_run(loop, lambda q, r: responses.append((q, r)))
    return loop, fleet, responses


def feed_latencies(replica, value, count=20):
    for _ in range(count):
        replica.observe_latency(value)


class TestPolicyValidation:
    def test_rejects_bad_tuning(self):
        with pytest.raises(ValueError, match="period"):
            OutlierPolicy(period=0.0)
        with pytest.raises(ValueError, match="max_ejection_fraction"):
            OutlierPolicy(max_ejection_fraction=1.5)


class TestScoring:
    def test_slow_replica_is_ejected(self):
        loop, fleet, _ = started_fleet(n=3)
        detector = OutlierDetector(fleet)
        feed_latencies(fleet.replicas[0], 0.004)
        feed_latencies(fleet.replicas[1], 0.004)
        feed_latencies(fleet.replicas[2], 0.040)
        detector.evaluate(1.0)
        assert detector.quarantined == [2]
        assert fleet.replicas[2].health is ReplicaHealth.EJECTED
        assert fleet.stats.ejections == 1
        event = detector.trace[0]
        assert (event.time, event.replica, event.action) == (1.0, 2, "eject")
        assert event.detail == pytest.approx(10.0)

    def test_cold_replicas_are_never_judged(self):
        loop, fleet, _ = started_fleet(n=3)
        detector = OutlierDetector(fleet)
        # Plenty slow, but below min_observations of evidence.
        feed_latencies(fleet.replicas[0], 0.004, count=4)
        feed_latencies(fleet.replicas[1], 0.004, count=4)
        feed_latencies(fleet.replicas[2], 0.400, count=4)
        detector.evaluate(1.0)
        assert detector.quarantined == []
        assert detector.trace == []

    def test_ejection_fraction_caps_the_quarantine(self):
        loop, fleet, _ = started_fleet(n=6)
        detector = OutlierDetector(fleet)
        for index in (0, 1, 2, 3):
            feed_latencies(fleet.replicas[index], 0.004)
        feed_latencies(fleet.replicas[4], 0.040)
        feed_latencies(fleet.replicas[5], 0.080)
        detector.evaluate(1.0)
        # int(0.34 * 6) = 2 allowed, and the worst outlier goes first.
        assert detector.quarantined == [4, 5]
        assert detector.trace[0].replica == 5
        feed_latencies(fleet.replicas[3], 0.080)
        detector.evaluate(2.0)
        # A third outlier appears but the budget is spent.
        assert detector.quarantined == [4, 5]

    def test_windowed_failure_rate_ejects(self):
        loop, fleet, _ = started_fleet(n=3)
        detector = OutlierDetector(fleet)
        victim = fleet.replicas[1]
        victim.completed, victim.failed = 4, 12
        for peer in (fleet.replicas[0], fleet.replicas[2]):
            peer.completed = 20
        detector.evaluate(1.0)
        assert detector.quarantined == [1]
        assert detector.trace[0].detail == pytest.approx(0.75)

    def test_administratively_dead_leave_the_books(self):
        loop, fleet, _ = started_fleet(n=3)
        detector = OutlierDetector(fleet)
        feed_latencies(fleet.replicas[0], 0.004)
        feed_latencies(fleet.replicas[1], 0.004)
        feed_latencies(fleet.replicas[2], 0.040)
        detector.evaluate(1.0)
        assert detector.quarantined == [2]
        fleet.kill_replica(2)
        detector.evaluate(2.0)
        assert detector.quarantined == []


class TestProbation:
    POLICY = OutlierPolicy(period=0.010, min_observations=8,
                           ejection_duration=0.050, probe_timeout=0.020)

    def test_clean_probation_readmits(self):
        loop, fleet, responses = started_fleet(n=3)
        detector = OutlierDetector(fleet, self.POLICY)
        detector.start(loop, lambda: True)
        feed_latencies(fleet.replicas[0], 0.004, count=8)
        feed_latencies(fleet.replicas[1], 0.004, count=8)
        feed_latencies(fleet.replicas[2], 0.040, count=8)
        loop.run(until=0.5)
        actions = [e.action for e in detector.trace]
        assert actions[:3] == ["eject", "probe", "readmit"]
        assert fleet.replicas[2].health is ReplicaHealth.UP
        assert detector.quarantined == []
        assert fleet.stats.readmissions == 1
        # Readmission wiped the poisoned latency window.
        assert fleet.replicas[2].latency_observations == 0
        # Probe queries never reached the run's responder.
        assert all(q.id < 3_000_000_000 for q, _ in responses)

    def test_unanswered_probes_re_eject(self):
        class Blackhole(FixedLatencySUT):
            def issue_query(self, query):
                self.issued += 1  # accepts, never answers

        loop = EventLoop(VirtualClock())
        fleet = ReplicaSet(
            lambda i: Blackhole() if i == 2 else FixedLatencySUT(0.004),
            initial_replicas=3)
        fleet.start_run(loop, lambda q, r: None)
        detector = OutlierDetector(fleet, self.POLICY)
        detector.start(loop, lambda: True)
        feed_latencies(fleet.replicas[0], 0.004, count=8)
        feed_latencies(fleet.replicas[1], 0.004, count=8)
        feed_latencies(fleet.replicas[2], 0.040, count=8)
        loop.run(until=0.5)
        actions = [e.action for e in detector.trace]
        assert "re-eject" in actions
        assert "readmit" not in actions
        assert fleet.replicas[2].health is ReplicaHealth.EJECTED
        # Each failed probation restarts the quarantine clock.
        re_ejects = [e for e in detector.trace if e.action == "re-eject"]
        assert all(e.detail == 3.0 for e in re_ejects)


class _Brownout:
    """RunService: degrade one chaos valve for a window of run time."""

    def __init__(self, valve, start, duration, factor):
        self.valve = valve
        self.window = (start, duration)
        self.factor = factor

    def start(self, loop, keep_going):
        at, duration = self.window
        loop.schedule_after(at, lambda: self.valve.degrade(self.factor))
        loop.schedule_after(at + duration, self.valve.restore)

    def stop(self):
        pass


class TestEndToEnd:
    def one_run(self, seed=5, registry=None):
        valves = {}

        def factory(index):
            valve = DegradedSUT(FixedLatencySUT(latency=0.002))
            valves[index] = valve
            return valve

        fleet = ReplicaSet(factory, initial_replicas=4, seed=seed,
                           registry=registry)
        policy = OutlierPolicy(min_observations=8, ejection_duration=0.1,
                               probe_timeout=0.008)
        detector = OutlierDetector(fleet, policy, seed=seed,
                                   registry=registry)
        fleet.chaos_valves = valves

        class _Later:
            """Install the brownout once the valves exist (post start)."""

            def start(self, loop, keep_going):
                _Brownout(valves[1], 0.3, 0.5, 12.0).start(loop, keep_going)

            def stop(self):
                pass

        result = run_benchmark(
            fleet, EchoQSL(), server_settings(seed=seed),
            services=[_Later(), detector], registry=registry)
        return fleet, detector, result

    def test_brownout_is_ejected_then_readmitted(self):
        registry = MetricsRegistry()
        fleet, detector, result = self.one_run(registry=registry)
        assert result.valid
        assert not result.log.failed_records()
        actions = [e.action for e in detector.trace]
        assert "eject" in actions
        assert "readmit" in actions
        assert all(e.replica == 1 for e in detector.trace)
        assert fleet.replicas[1].health is ReplicaHealth.UP
        assert registry.get("ejection_ejections_total") is not None
        assert registry.get("ejection_active").value == 0.0

    def test_same_seed_same_ejection_trail(self):
        def fingerprinted():
            fleet, detector, result = self.one_run(seed=9)
            return detector.trace, run_fingerprint(result)
        assert fingerprinted() == fingerprinted()


class TestRescueAndRepin:
    def turn(self, query_id, session_id, turn_index, turn_count=4):
        turn = SessionTurn(
            session_id=session_id, turn_index=turn_index,
            turn_count=turn_count, prefix_tokens=64 * turn_index,
            new_tokens=32, response_tokens=32)
        return Query(id=query_id,
                     samples=(QuerySample(id=query_id, index=0),),
                     session=turn)

    def pinned_fleet(self):
        loop = EventLoop(VirtualClock())
        registry = MetricsRegistry()
        fleet = ReplicaSet(
            lambda i: FixedLatencySUT(latency=0.004),
            initial_replicas=3, policy="session-affinity",
            registry=registry,
            cache_factory=per_replica_cache_factory(
                capacity_tokens=4096, registry=registry))
        fleet.start_run(loop, lambda q, r: None)
        return loop, fleet

    def test_eject_warms_rescue_cache_and_repins_the_session(self):
        loop, fleet = self.pinned_fleet()
        # Turn 0 pins session 7 to replica 0 (least outstanding, lowest
        # index wins).
        fleet.issue_query(self.turn(1, session_id=7, turn_index=0))
        loop.run(until=0.01)
        assert fleet.replicas[0].completed == 1
        # Turn 1 is in flight on the pinned replica when the detector
        # ejects it: the turn must be rescued, the rescue replica's
        # cache warmed with the session prefix, and the pin migrated.
        fleet.issue_query(self.turn(2, session_id=7, turn_index=1))
        assert fleet.replicas[0].outstanding == 1
        rescued = fleet.eject_replica(0)
        assert rescued == 1
        loop.run(until=0.02)
        assert fleet.stats.rescued_queries == 1
        assert fleet.stats.cache_warms == 1
        rescue_index = next(
            i for i, r in enumerate(fleet.replicas) if r.completed and i != 0)
        assert fleet.caches[rescue_index].stats.admissions == 1
        # Satellite regression: a turn issued *during* the ejection
        # follows the migrated pin instead of dangling on the ejected
        # replica.
        fleet.issue_query(self.turn(3, session_id=7, turn_index=2))
        loop.run(until=0.03)
        # The rescue replica now holds the rescued turn plus the new one.
        assert fleet.replicas[rescue_index].completed == 2
        assert fleet.replicas[0].completed == 1

    def test_kill_rescue_also_warms_and_repins(self):
        loop, fleet = self.pinned_fleet()
        fleet.issue_query(self.turn(1, session_id=3, turn_index=0))
        loop.run(until=0.01)
        fleet.issue_query(self.turn(2, session_id=3, turn_index=1))
        assert fleet.kill_replica(0) == 1
        loop.run(until=0.02)
        assert fleet.stats.cache_warms == 1
        rescue_index = next(
            i for i, r in enumerate(fleet.replicas) if r.completed and i != 0)
        fleet.issue_query(self.turn(3, session_id=3, turn_index=2))
        loop.run(until=0.03)
        assert fleet.replicas[rescue_index].completed == 2

    def test_first_turn_rescue_has_nothing_to_warm(self):
        loop, fleet = self.pinned_fleet()
        # prefix_tokens == 0 on turn 0: rescue must not fabricate an
        # admission.
        fleet.issue_query(self.turn(1, session_id=9, turn_index=0))
        fleet.eject_replica(0)
        loop.run(until=0.02)
        assert fleet.stats.rescued_queries == 1
        assert fleet.stats.cache_warms == 0
