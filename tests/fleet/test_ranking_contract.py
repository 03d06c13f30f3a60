"""The ranking contract of the zone policies, and what ``_dispatch``
ranks: pinned from outside against references spelled from the
docstrings, so the routing decision can be rebuilt underneath them.

* ``ZoneSpreadPolicy.rank`` / ``ZoneLocalPolicy.rank`` against a
  reference written here: one least-outstanding queue per zone (ties by
  index), dealt round-robin in zone order - rotated one zone per
  decision for zone-spread, local zone first for zone-local.
* ``ReplicaSet._dispatch`` hands the policy exactly the UP replicas
  minus the excluded one, in index order.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventLoop, VirtualClock
from repro.core.query import Query, QuerySample
from repro.fleet import (
    BalancerPolicy,
    ReplicaHealth,
    ReplicaSet,
    ZoneLocalPolicy,
    ZoneSpreadPolicy,
)
from repro.fleet.balancer import _interleave_zones

from tests.conftest import FixedLatencySUT

ZONES = ("a", "b", "c", "d")


@dataclass
class Zoned:
    index: int
    outstanding: int
    zone: str


@dataclass
class Zoneless:
    """A test double without a zone: ranks as if it lived in ``z0``."""

    index: int
    outstanding: int


def zone_of(replica):
    return getattr(replica, "zone", "z0")


def dealt(candidates, zone_order):
    """The reference: per-zone least-outstanding queues, one replica
    from each zone in ``zone_order`` per round until all are placed."""
    queues = [sorted((r for r in candidates if zone_of(r) == zone),
                     key=lambda r: (r.outstanding, r.index))
              for zone in zone_order]
    ranked = []
    for depth in range(len(candidates)):
        ranked.extend(q[depth] for q in queues if depth < len(q))
    return ranked


def spread_reference(candidates, decision):
    zones = sorted({zone_of(r) for r in candidates})
    if not zones:
        return []
    offset = decision % len(zones)
    return dealt(candidates, zones[offset:] + zones[:offset])


def local_reference(candidates, local_zone):
    zones = sorted({zone_of(r) for r in candidates})
    if not zones:
        return []
    local = local_zone if local_zone in zones else zones[0]
    return (dealt(candidates, [local])
            + dealt([r for r in candidates if zone_of(r) != local],
                    [z for z in zones if z != local]))


@st.composite
def candidate_sets(draw, zoneless=True):
    """0-8 replicas over 1-4 zones (``z0`` among them, so a zone-less
    double can share a zone with a zoned one), few distinct
    ``outstanding`` values so ties happen, indices in arbitrary order."""
    zones = draw(st.lists(st.sampled_from(ZONES + ("z0",)), min_size=1,
                          max_size=4, unique=True))
    indices = draw(st.lists(st.integers(0, 40), max_size=8, unique=True))
    out = []
    for index in indices:
        outstanding = draw(st.integers(0, 3))
        if zoneless and draw(st.booleans()) and draw(st.booleans()):
            out.append(Zoneless(index, outstanding))
        else:
            out.append(Zoned(index, outstanding, draw(st.sampled_from(zones))))
    return out


def started(policy):
    policy.start_run(np.random.default_rng(0))
    return policy


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_zone_spread_ranks_as_documented_over_consecutive_decisions(data):
    policy = started(ZoneSpreadPolicy())
    decision = 0  # an empty candidate set does not consume a rotation step
    for _ in range(20):
        candidates = data.draw(candidate_sets())
        before = [(r.index, r.outstanding) for r in candidates]
        ranked = policy.rank(candidates)
        assert ranked == spread_reference(candidates, decision)
        assert [(r.index, r.outstanding) for r in candidates] == before
        if candidates:
            decision += 1


@settings(max_examples=60, deadline=None)
@given(candidate_sets(), st.integers(0, 3))
def test_zone_spread_over_one_fleet_whose_load_moves(candidates, bump):
    # The shape the fleet produces: one replica list, the primary of
    # each decision picks up a query before the next.
    policy = started(ZoneSpreadPolicy())
    for decision in range(20):
        ranked = policy.rank(candidates)
        assert ranked == spread_reference(candidates, decision)
        if ranked:
            ranked[0].outstanding += 1
            candidates[(decision * 3 + bump) % len(candidates)].outstanding = 0


@settings(max_examples=200, deadline=None)
@given(candidate_sets(), st.sampled_from(ZONES + ("z0", None)))
def test_zone_local_ranks_as_documented(candidates, local_zone):
    # ``local_zone`` present among the candidates, absent, or None.
    policy = started(ZoneLocalPolicy(local_zone=local_zone))
    assert policy.rank(candidates) == local_reference(candidates, local_zone)
    assert policy.rank(candidates) == local_reference(candidates, local_zone)


@settings(max_examples=150, deadline=None)
@given(candidate_sets(), st.permutations(ZONES + ("z0",)))
def test_interleave_skips_a_zone_with_no_candidate(candidates, zone_order):
    # Every zone is in the order; most hold nobody.
    ranked = _interleave_zones(candidates, zone_order)
    assert ranked == dealt(candidates, zone_order)
    assert sorted(r.index for r in ranked) == sorted(
        r.index for r in candidates)


def test_zoneless_doubles_degrade_to_least_outstanding():
    fleet = [Zoneless(3, 2), Zoneless(1, 0), Zoneless(2, 0), Zoneless(0, 5)]
    policy = started(ZoneSpreadPolicy())
    for _ in range(3):
        assert [r.index for r in policy.rank(fleet)] == [1, 2, 3, 0]
    assert [r.index for r in started(ZoneLocalPolicy("a")).rank(fleet)] == \
        [1, 2, 3, 0]


def test_no_two_neighbours_share_a_zone_while_both_zones_last():
    fleet = [Zoned(i, 0, "ab"[i % 2]) for i in range(6)]
    ranked = started(ZoneSpreadPolicy()).rank(fleet)
    zones = [r.zone for r in ranked]
    assert all(x != y for x, y in zip(zones, zones[1:]))


# -- what _dispatch ranks ------------------------------------------------------

class Recorder(BalancerPolicy):
    """Keeps every candidate list it is asked to rank, as given."""

    name = "recorder"

    def start_run(self, rng):
        super().start_run(rng)
        self.seen = []

    def rank(self, candidates):
        self.seen.append(candidates)
        return list(candidates)


def one_query(query_id):
    return Query(id=query_id, samples=(QuerySample(id=query_id, index=0),))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(list(ReplicaHealth)), min_size=1, max_size=6),
       st.one_of(st.none(), st.integers(0, 6)),
       st.booleans())
def test_dispatch_ranks_the_available_replicas_minus_the_excluded(
        healths, exclude, rescue):
    fleet = ReplicaSet(lambda i: FixedLatencySUT(), policy=Recorder(),
                       initial_replicas=len(healths), max_replicas=8)
    fleet.start_run(EventLoop(VirtualClock()), lambda q, r: None)
    for replica, health in zip(fleet.replicas, healths):
        replica.health = health
    expected = [r for r in fleet.available_replicas if r.index != exclude]

    # issue_query admits the query and dispatches with nobody excluded;
    # a reroute or rescue re-dispatches the same state around a replica.
    fleet.issue_query(one_query(1))
    if ReplicaHealth.UP in healths:
        state = fleet._inflight[1]
        served = fleet._dispatch(state, exclude=exclude, rescue=rescue)
        assert served == bool(expected)
        assert fleet.policy.seen[1] == expected
        assert type(fleet.policy.seen[1]) is list
    assert fleet.policy.seen[0] == fleet.available_replicas
    assert [r.index for r in fleet.policy.seen[0]] == [
        i for i, h in enumerate(healths) if h is ReplicaHealth.UP]


@pytest.mark.parametrize("health", [
    ReplicaHealth.DRAINING, ReplicaHealth.EJECTED, ReplicaHealth.DOWN])
def test_a_fleet_with_nobody_up_sheds_without_ranking_anyone(health):
    failures = []
    fleet = ReplicaSet(lambda i: FixedLatencySUT(), policy=Recorder(),
                       initial_replicas=3)
    fleet.start_run(EventLoop(VirtualClock()),
                    lambda q, r: failures.append(r))
    for replica in fleet.replicas:
        replica.health = health
    fleet.issue_query(one_query(1))
    assert fleet.policy.seen == [[]]
    assert fleet.stats.shed_queries == 1 and len(failures) == 1
