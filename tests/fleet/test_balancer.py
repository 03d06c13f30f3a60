"""Balancing policies: rankings, determinism, and the factory."""

import numpy as np
import pytest

from repro.fleet import (
    POLICY_NAMES,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    WeightedP99Policy,
    make_policy,
)
from repro.fleet.replica import Replica


def replicas(n, outstanding=(), p99=()):
    out = []
    for i in range(n):
        r = Replica(i, sut=None, clock=lambda: 0.0)
        r.outstanding = outstanding[i] if i < len(outstanding) else 0
        for latency in ([p99[i]] * 8 if i < len(p99) else []):
            r.observe_latency(latency)
        out.append(r)
    return out


def fresh(policy, seed=0):
    policy.start_run(np.random.default_rng(seed))
    return policy


class TestRoundRobin:
    def test_rotates_one_step_per_decision(self):
        policy = fresh(RoundRobinPolicy())
        fleet = replicas(3)
        orders = [[r.index for r in policy.rank_for(None, fleet)]
                  for _ in range(4)]
        assert orders == [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2]]

    def test_every_replica_gets_equal_share(self):
        policy = fresh(RoundRobinPolicy())
        fleet = replicas(4)
        firsts = [policy.rank_for(None, fleet)[0].index for _ in range(40)]
        assert all(firsts.count(i) == 10 for i in range(4))

    def test_empty_candidate_list(self):
        assert fresh(RoundRobinPolicy()).rank_for(None, []) == []

    def test_survives_fleet_resize(self):
        policy = fresh(RoundRobinPolicy())
        policy.rank_for(None, replicas(5))
        # Shrinking the candidate set must not break the rotation.
        order = policy.rank_for(None, replicas(2))
        assert sorted(r.index for r in order) == [0, 1]


class TestLeastOutstanding:
    def test_prefers_idle_replica(self):
        policy = fresh(LeastOutstandingPolicy())
        fleet = replicas(3, outstanding=(5, 0, 2))
        assert [r.index for r in policy.rank_for(None, fleet)] == [1, 2, 0]

    def test_ties_break_by_index(self):
        policy = fresh(LeastOutstandingPolicy())
        fleet = replicas(3, outstanding=(1, 1, 1))
        assert [r.index for r in policy.rank_for(None, fleet)] == [0, 1, 2]


class TestWeightedP99:
    def test_slow_replica_loses_share(self):
        policy = fresh(WeightedP99Policy())
        fleet = replicas(2, p99=(0.001, 0.100))
        firsts = [policy.rank_for(None, fleet)[0].index
                  for _ in range(200)]
        # 100x latency ratio => ~99% of primaries go to the fast one.
        assert firsts.count(0) > 180

    def test_fallback_order_is_fastest_first(self):
        policy = fresh(WeightedP99Policy())
        fleet = replicas(3, p99=(0.050, 0.001, 0.010))
        ranked = policy.rank_for(None, fleet)
        rest = [r.index for r in ranked[1:]]
        assert rest == sorted(rest, key=lambda i: fleet[i].p99())

    def test_same_seed_same_choices(self):
        fleet = replicas(3, p99=(0.01, 0.02, 0.03))
        a = fresh(WeightedP99Policy(), seed=7)
        b = fresh(WeightedP99Policy(), seed=7)
        for _ in range(50):
            assert ([r.index for r in a.rank_for(None, fleet)]
                    == [r.index for r in b.rank_for(None, fleet)])

    def test_cold_start_is_uniformish(self):
        policy = fresh(WeightedP99Policy())
        fleet = replicas(3)  # no latency observations at all
        firsts = [policy.rank_for(None, fleet)[0].index
                  for _ in range(300)]
        assert all(firsts.count(i) > 50 for i in range(3))

    def test_single_candidate_consumes_no_entropy(self):
        policy = fresh(WeightedP99Policy(), seed=3)
        fleet = replicas(1)
        before = policy._rng.bit_generator.state["state"]["state"]
        assert [r.index for r in policy.rank_for(None, fleet)] == [0]
        assert policy._rng.bit_generator.state["state"]["state"] == before


class TestFactory:
    def test_names_resolve(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_none_defaults_to_round_robin(self):
        assert isinstance(make_policy(None), RoundRobinPolicy)

    def test_instance_passes_through(self):
        policy = LeastOutstandingPolicy()
        assert make_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown balancer policy"):
            make_policy("fastest-finger")

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            make_policy(42)
