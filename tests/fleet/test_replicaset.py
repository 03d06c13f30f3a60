"""ReplicaSet: routing, failover, kill rescue, scaling primitives."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.durability import BreakerPolicy, run_fingerprint
from repro.faults import OutageSUT
from repro.fleet import ReplicaHealth, ReplicaSet
from repro.metrics import MetricsRegistry

from tests.conftest import EchoQSL, FixedLatencySUT


def server_settings(queries=300, qps=200.0, bound=0.05, seed=0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=60.0, seed=seed,
    )


def echo_fleet(n=4, latency=0.004, **kwargs):
    return ReplicaSet(lambda i: FixedLatencySUT(latency=latency),
                      initial_replicas=n, **kwargs)


class _KillAt:
    """RunService that kills one replica at a scheduled run time."""

    def __init__(self, fleet, index, at):
        self.fleet, self.index, self.at = fleet, index, at
        self.rescued = None

    def start(self, loop, keep_going):
        def _kill():
            self.rescued = self.fleet.kill_replica(self.index)
        loop.schedule_after(self.at, _kill)

    def stop(self):
        pass


class TestRouting:
    def test_healthy_fleet_serves_a_valid_run(self):
        fleet = echo_fleet(policy="round-robin")
        result = run_benchmark(fleet, EchoQSL(), server_settings())
        assert result.valid
        assert not result.log.failed_records()
        assert fleet.stats.shed_queries == 0
        issued = [r.issued for r in fleet.replicas]
        assert sum(issued) == 300
        # Round-robin spreads the load across all four replicas.
        assert all(count > 0 for count in issued)

    @pytest.mark.parametrize(
        "policy", ["round-robin", "least-outstanding", "weighted-p99"])
    def test_same_seed_same_routing_and_result(self, policy):
        def one_run():
            fleet = echo_fleet(policy=policy, seed=11)
            result = run_benchmark(fleet, EchoQSL(),
                                   server_settings(seed=11))
            return ([r.issued for r in fleet.replicas],
                    run_fingerprint(result))
        assert one_run() == one_run()

    def test_validation_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="initial_replicas"):
            echo_fleet(n=9, max_replicas=4)
        with pytest.raises(ValueError, match="attempt_timeout"):
            echo_fleet(attempt_timeout=0.0)
        with pytest.raises(ValueError, match="max_reroutes"):
            echo_fleet(max_reroutes=-1)


class TestFailover:
    def test_outage_replica_is_rerouted_around(self):
        # Replica 0 blackholes everything in [0.2, 0.6); its deadline
        # misses must reroute to survivors and trip its breaker.
        def factory(index):
            backend = FixedLatencySUT(latency=0.004)
            if index == 0:
                return OutageSUT(backend, 0.2, 0.4)
            return backend

        fleet = ReplicaSet(
            factory, initial_replicas=3, attempt_timeout=0.02,
            policy="round-robin",
            breaker_policy=BreakerPolicy(window=4, min_samples=2,
                                         failure_threshold=0.5,
                                         open_duration=0.1),
        )
        result = run_benchmark(fleet, EchoQSL(),
                               server_settings(queries=400))
        assert result.valid
        assert not result.log.failed_records()
        assert fleet.stats.reroutes > 0
        assert fleet.stats.deadline_failures > 0
        # The breaker learned: far fewer deadline misses than the
        # ~80 queries that landed in the outage window would suggest.
        assert fleet.replicas[0].breaker.stats.opens >= 1

    def test_reroute_latency_is_bounded_by_deadline(self):
        def factory(index):
            backend = FixedLatencySUT(latency=0.004)
            if index == 0:
                return OutageSUT(backend, 0.2, 0.2)
            return backend

        fleet = ReplicaSet(factory, initial_replicas=3,
                           attempt_timeout=0.02, max_reroutes=2)
        result = run_benchmark(fleet, EchoQSL(), server_settings())
        worst = max(r.latency for r in result.log.completed_records())
        # A query can lose at most max_reroutes deadlines before the
        # attempt that completes.
        assert worst <= 2 * 0.02 + 0.004 + 1e-9

    def test_all_replicas_down_sheds_with_classified_reason(self):
        fleet = echo_fleet(n=2)
        killer_a = _KillAt(fleet, 0, 0.01)
        killer_b = _KillAt(fleet, 1, 0.01)
        result = run_benchmark(
            fleet, EchoQSL(), server_settings(queries=100),
            services=[killer_a, killer_b])
        assert not result.valid  # the run fails, the harness does not
        failed = result.log.failed_records()
        assert failed
        assert any("no replica available" in r.failure_reason
                   for r in failed)


class TestKillRescue:
    def test_killed_replicas_inflight_queries_are_rescued(self):
        # 50 ms service time at 200 qps: ~10 queries in flight at any
        # instant, so a mid-run kill must rescue a non-trivial batch.
        fleet = echo_fleet(n=4, latency=0.050, attempt_timeout=0.5)
        killer = _KillAt(fleet, 1, 0.75)
        result = run_benchmark(
            fleet, EchoQSL(),
            server_settings(queries=400, bound=0.2),
            services=[killer])
        assert killer.rescued is not None and killer.rescued > 0
        assert result.valid
        assert not result.log.failed_records()
        assert fleet.stats.rescued_queries == killer.rescued
        assert fleet.replicas[1].health is ReplicaHealth.DOWN
        assert fleet.replicas[1].outstanding == 0

    def test_rescue_does_not_consume_the_query_budget(self):
        fleet = echo_fleet(n=2, latency=0.050, attempt_timeout=0.5,
                           max_reroutes=0)
        killer = _KillAt(fleet, 0, 0.3)
        result = run_benchmark(
            fleet, EchoQSL(), server_settings(queries=150, bound=0.2),
            services=[killer])
        # max_reroutes=0 would fail rescued queries if the rescue
        # consumed the budget; it must not.
        assert killer.rescued > 0
        assert not result.log.failed_records()
        assert result.valid

    def test_restore_after_kill_serves_again(self):
        fleet = echo_fleet(n=2)
        loop = EventLoop(VirtualClock())
        sink = []
        fleet.start_run(loop, lambda q, r: sink.append((q, r)))
        fleet.kill_replica(0)
        assert fleet.replicas[0].health is ReplicaHealth.DOWN
        fleet.restore_replica(0)
        assert fleet.replicas[0].health is ReplicaHealth.UP
        assert fleet.replicas[0].breaker.stats.admitted == 0


class TestScaling:
    def make_started(self, **kwargs):
        fleet = echo_fleet(**kwargs)
        loop = EventLoop(VirtualClock())
        fleet.start_run(loop, lambda q, r: None)
        return fleet

    def test_scale_down_drains_and_parks(self):
        fleet = self.make_started(n=3)
        assert fleet.scale_down()
        # Nothing in flight: the victim parks DOWN immediately.
        assert fleet.replicas[2].health is ReplicaHealth.DOWN
        assert len(fleet.available_replicas) == 2
        assert fleet.stats.drained_replicas == 1

    def test_scale_down_keeps_the_last_replica(self):
        fleet = self.make_started(n=2)
        assert fleet.scale_down()
        assert not fleet.scale_down()
        assert len(fleet.available_replicas) == 1

    def test_scale_up_revives_parked_then_builds_fresh(self):
        fleet = self.make_started(n=2, max_replicas=4)
        fleet.scale_down()
        assert len(fleet.replicas) == 2
        assert fleet.scale_up()  # revives the parked replica
        assert len(fleet.replicas) == 2
        assert len(fleet.available_replicas) == 2
        assert fleet.scale_up()  # builds a brand-new replica
        assert len(fleet.replicas) == 3
        assert len(fleet.available_replicas) == 3

    def test_scale_up_respects_the_cap(self):
        fleet = self.make_started(n=2, max_replicas=2)
        assert not fleet.scale_up()
        assert len(fleet.replicas) == 2

    def test_draining_replica_finishes_inflight_work(self):
        fleet = ReplicaSet(lambda i: FixedLatencySUT(latency=0.010),
                           initial_replicas=2, policy="round-robin")
        clock = VirtualClock()
        loop = EventLoop(clock)
        done = []
        fleet.start_run(loop, lambda q, r: done.append(q))
        from repro.core.query import Query, QuerySample
        query = Query(id=1, samples=(QuerySample(id=1, index=0),))
        queries = [Query(id=n, samples=(QuerySample(id=n, index=0),))
                   for n in (1, 2)]
        for query in queries:
            fleet.issue_query(query)  # round-robin: one per replica
        victim = fleet.replicas[1]
        assert victim.outstanding == 1
        assert fleet.scale_down()  # drains the highest-indexed UP replica
        assert victim.health is ReplicaHealth.DRAINING
        loop.run()
        assert sorted(q.id for q in done) == [1, 2]
        assert victim.health is ReplicaHealth.DOWN


class TestMetrics:
    def test_fleet_families_light_up(self):
        registry = MetricsRegistry()
        fleet = echo_fleet(registry=registry)
        run_benchmark(fleet, EchoQSL(), server_settings())
        assert registry.get("fleet_replicas").value == 4.0
        assert registry.get("fleet_replicas_available").value == 4.0
        assert registry.get("fleet_outstanding_queries").value == 0.0
        routed = sum(
            child.value
            for _, child in registry.get("lb_routed_total").series())
        assert routed == 300
