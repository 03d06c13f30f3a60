"""Zone topology: fault domains, zone-aware policies, zone scaling."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.durability import run_fingerprint
from repro.fleet import (
    ReplicaHealth,
    ReplicaSet,
    ZoneLocalPolicy,
    ZoneSpreadPolicy,
    make_policy,
)

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


def started_fleet(**kwargs):
    fleet = echo_fleet(**kwargs)
    fleet.start_run(EventLoop(VirtualClock()), lambda q, r: None)
    return fleet


class TestTopology:
    def test_integer_zones_stripe_round_robin(self):
        fleet = started_fleet(n=5, zones=2)
        assert [r.zone for r in fleet.replicas] == \
            ["z0", "z1", "z0", "z1", "z0"]
        assert [r.index for r in fleet.replicas if r.zone == "z1"] == [1, 3]

    def test_sequence_and_callable_zone_maps(self):
        named = started_fleet(n=4, zones=["east", "west"])
        assert [r.zone for r in named.replicas] == \
            ["east", "west", "east", "west"]
        blocked = started_fleet(n=4, zones=lambda i: f"rack{i // 2}")
        assert [r.zone for r in blocked.replicas] == \
            ["rack0", "rack0", "rack1", "rack1"]

    def test_default_is_one_zone(self):
        fleet = started_fleet(n=3)
        assert {r.zone for r in fleet.replicas} == {"z0"}

    def test_validation(self):
        with pytest.raises(ValueError, match="zones"):
            echo_fleet(zones=0)
        with pytest.raises(ValueError, match="zones"):
            echo_fleet(zones=[])


class TestZoneOutage:
    def test_kill_zone_rescues_and_survivors_serve(self):
        fleet = echo_fleet(n=4, zones=2, policy="round-robin")

        class _KillZone:
            def __init__(self, fleet):
                self.fleet = fleet
                self.rescued = None

            def start(self, loop, keep_going):
                def _fire():
                    self.rescued = self.fleet.kill_zone("z0")
                loop.schedule_after(0.4, _fire)

            def stop(self):
                pass

        service = _KillZone(fleet)
        result = run_benchmark(fleet, EchoQSL(), server_settings(),
                               services=[service])
        assert result.valid
        assert not result.log.failed_records()
        assert service.rescued is not None
        assert fleet.stats.zone_kills == 1
        for replica in fleet.replicas:
            if replica.zone == "z0":
                assert replica.health is ReplicaHealth.DOWN
        # No query was lost: every issue completed, on a survivor if
        # it was in flight when its zone died.
        assert len(result.log.completed_records()) == 300

    def test_restore_zone_brings_the_domain_back(self):
        fleet = started_fleet(n=4, zones=2)
        fleet.kill_zone("z1")
        assert len(fleet.available_replicas) == 2
        assert fleet.restore_zone("z1") == 2
        assert len(fleet.available_replicas) == 4

    def test_scaled_down_replica_stays_parked_on_zone_restore(self):
        fleet = started_fleet(n=4, zones=2)
        # Drains the highest-indexed replica (3, zone z1); it parks at
        # once since nothing is in flight.
        assert fleet.scale_down()
        assert fleet.replicas[3].health is ReplicaHealth.DOWN
        fleet.kill_zone("z1")
        assert fleet.restore_zone("z1") == 1
        # The administratively-parked replica is not resurrected.
        assert fleet.replicas[3].health is ReplicaHealth.DOWN
        assert fleet.replicas[1].health is ReplicaHealth.UP


class TestZoneAwareScaling:
    def test_scale_up_unparks_into_the_thinnest_zone(self):
        fleet = started_fleet(n=4, zones=2)
        for _ in range(3):       # parks replicas 3 (z1), 2 (z0), 1 (z1)
            assert fleet.scale_down()
        assert [r.zone for r in fleet.available_replicas] == ["z0"]
        assert fleet.scale_up()
        # z1 had zero available replicas, so the revival lands there.
        assert fleet.replicas[1].health is ReplicaHealth.UP
        assert fleet.replicas[1].zone == "z1"

    def test_fresh_replicas_follow_the_zone_map(self):
        fleet = started_fleet(n=2, zones=2, max_replicas=4)
        assert fleet.scale_up()
        assert len(fleet.replicas) == 3
        assert fleet.replicas[2].zone == "z0"


class TestZonePolicies:
    def test_registry_knows_the_zone_policies(self):
        assert isinstance(make_policy("zone-spread"), ZoneSpreadPolicy)
        assert isinstance(make_policy("zone-local"), ZoneLocalPolicy)

    def test_zone_spread_alternates_zones(self):
        fleet = started_fleet(n=4, zones=2, policy="zone-spread")
        ranked = fleet.policy.rank_for(None, fleet.available_replicas)
        zones = [r.zone for r in ranked]
        assert len(ranked) == 4
        # No two adjacent ranking positions share a fault domain.
        assert all(a != b for a, b in zip(zones, zones[1:]))

    def test_zone_spread_serves_a_valid_run_and_spreads(self):
        fleet = echo_fleet(n=4, zones=2, policy="zone-spread")
        result = run_benchmark(fleet, EchoQSL(), server_settings())
        assert result.valid
        issued = [r.issued for r in fleet.replicas]
        assert all(count > 0 for count in issued)
        per_zone = [issued[0] + issued[2], issued[1] + issued[3]]
        # Both zones carry a comparable share of the load.
        assert min(per_zone) > 0.3 * sum(per_zone)

    def test_zone_local_defaults_to_the_first_sorted_zone(self):
        fleet = echo_fleet(n=4, zones=["b", "a"], policy=ZoneLocalPolicy())
        result = run_benchmark(fleet, EchoQSL(),
                               server_settings(queries=100))
        assert result.valid
        issued = [r.issued for r in fleet.replicas]
        # Sorted zones are ["a", "b"]; "a" holds replicas 1 and 3.
        assert issued[1] + issued[3] == 100

    def test_same_seed_same_zone_routing(self):
        def one_run(policy):
            fleet = echo_fleet(n=4, zones=2, policy=policy, seed=7)
            result = run_benchmark(fleet, EchoQSL(),
                                   server_settings(seed=7))
            return ([r.issued for r in fleet.replicas],
                    run_fingerprint(result))
        for policy in ("zone-spread", "zone-local"):
            assert one_run(policy) == one_run(policy)
