"""The ranking contract of the zone policies, and what ``_dispatch``
ranks: pinned from outside against references spelled from the
docstrings, so the routing decision can be rebuilt underneath them.

* ``ZoneSpreadPolicy.rank_for`` / ``ZoneLocalPolicy.rank_for`` against a
  reference written here: one least-outstanding queue per zone (ties by
  index), dealt round-robin in zone order - rotated one zone per
  decision for zone-spread, local zone first for zone-local.
* ``ReplicaSet._dispatch`` hands the policy exactly the UP replicas
  minus the excluded one, in index order.
* The zone policies and ``WeightedP99Policy`` against their shipped
  code, kept below verbatim as oracles: the same rankings (and, for the
  weighted policy, the same RNG draws) over seeded decision sequences,
  and a pinned sha256 of which replica served each query of a zoned
  fleet through a zone outage.
"""

import hashlib
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QuerySample
from repro.fleet import (
    BalancerPolicy,
    ReplicaHealth,
    ReplicaSet,
    WeightedP99Policy,
    ZoneLocalPolicy,
    ZoneSpreadPolicy,
)
from repro.fleet.balancer import _interleave_zones
from repro.fleet.replica import Replica

from tests.conftest import EchoQSL, FixedLatencySUT

ZONES = ("a", "b", "c", "d")


@dataclass
class Zoned:
    index: int
    outstanding: int
    zone: str


def dealt(candidates, zone_order):
    """The reference: per-zone least-outstanding queues, one replica
    from each zone in ``zone_order`` per round until all are placed."""
    queues = [sorted((r for r in candidates if r.zone == zone),
                     key=lambda r: (r.outstanding, r.index))
              for zone in zone_order]
    ranked = []
    for depth in range(len(candidates)):
        ranked.extend(q[depth] for q in queues if depth < len(q))
    return ranked


def spread_reference(candidates, decision):
    zones = sorted({r.zone for r in candidates})
    if not zones:
        return []
    offset = decision % len(zones)
    return dealt(candidates, zones[offset:] + zones[:offset])


def local_reference(candidates, local_zone):
    zones = sorted({r.zone for r in candidates})
    if not zones:
        return []
    local = local_zone if local_zone in zones else zones[0]
    return (dealt(candidates, [local])
            + dealt([r for r in candidates if r.zone != local],
                    [z for z in zones if z != local]))


@st.composite
def candidate_sets(draw):
    """0-8 replicas over 1-4 zones, few distinct ``outstanding`` values
    so ties happen, indices in arbitrary order."""
    zones = draw(st.lists(st.sampled_from(ZONES + ("z0",)), min_size=1,
                          max_size=4, unique=True))
    indices = draw(st.lists(st.integers(0, 40), max_size=8, unique=True))
    out = []
    for index in indices:
        outstanding = draw(st.integers(0, 3))
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
        ranked = policy.rank_for(None, candidates)
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
        ranked = policy.rank_for(None, candidates)
        assert ranked == spread_reference(candidates, decision)
        if ranked:
            ranked[0].outstanding += 1
            candidates[(decision * 3 + bump) % len(candidates)].outstanding = 0


@settings(max_examples=200, deadline=None)
@given(candidate_sets())
def test_zone_local_ranks_as_documented(candidates):
    policy = started(ZoneLocalPolicy())
    expected = local_reference(candidates, None)
    assert policy.rank_for(None, candidates) == expected
    assert policy.rank_for(None, candidates) == expected


@settings(max_examples=150, deadline=None)
@given(candidate_sets(), st.permutations(ZONES + ("z0",)))
def test_interleave_skips_a_zone_with_no_candidate(candidates, zone_order):
    # Every zone is in the order; most hold nobody.
    ranked = _interleave_zones(candidates, zone_order)
    assert ranked == dealt(candidates, zone_order)
    assert sorted(r.index for r in ranked) == sorted(
        r.index for r in candidates)


def test_no_two_neighbours_share_a_zone_while_both_zones_last():
    fleet = [Zoned(i, 0, "ab"[i % 2]) for i in range(6)]
    ranked = started(ZoneSpreadPolicy()).rank_for(None, fleet)
    zones = [r.zone for r in ranked]
    assert all(x != y for x, y in zip(zones, zones[1:]))


# -- what _dispatch ranks ------------------------------------------------------

class Recorder(BalancerPolicy):
    """Keeps every candidate list it is asked to rank, as given."""

    name = "recorder"

    def start_run(self, rng):
        super().start_run(rng)
        self.seen = []

    def rank_for(self, query, candidates):
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


# -- the shipped ranking code, verbatim, as the oracle --------------------------
#
# ``_zone_names``, ``_interleave_zones``, ``ZoneSpreadPolicy.rank``,
# ``ZoneLocalPolicy.rank`` and ``WeightedP99Policy.rank`` as they shipped
# before the zone ranking became one deal and the weighted policy read
# each window once.  Do not edit them with the code.

_BY_LOAD = attrgetter("outstanding", "index")
_P99_EPSILON = 1e-6


def _zone_of(replica) -> str:
    # FakeReplica-style test doubles may not carry a zone; one-zone
    # semantics (plain least-outstanding) is the right degradation.
    return getattr(replica, "zone", "z0")


def _oracle_zone_names(candidates: Sequence) -> List[str]:
    """The zones the candidates live in, sorted for determinism."""
    try:
        return sorted({r.zone for r in candidates})
    except AttributeError:  # a zone-less double among them
        return sorted({_r.zone for r in candidates})


def _oracle_interleave_zones(candidates: Sequence,
                             zone_order: Sequence[str]) -> List:
    """Round-robin across zones (in ``zone_order``), least-outstanding
    within each zone - so consecutive ranking positions sit in
    different fault domains wherever possible.

    The ordering contract: position ``k`` of zone ``z``'s queue (its
    candidates by ``(outstanding, index)``) ranks before position
    ``k + 1`` of every zone, and within one round zones keep
    ``zone_order``; a zone that runs out is skipped.  Candidates whose
    zone is not in ``zone_order`` are left out.  One sort, one deal, one
    pass per decision.
    """
    queues: Dict[str, List] = {zone: [] for zone in zone_order}
    for replica in sorted(candidates, key=_BY_LOAD):
        try:
            zone = replica.zone
        except AttributeError:
            zone = _zone_of(replica)
        if zone in queues:
            queues[zone].append(replica)
    return [replica for round_ in zip_longest(*queues.values())
            for replica in round_ if replica is not None]


class OracleZoneSpread:
    def start_run(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._cursor = 0

    def rank(self, candidates: Sequence) -> List:
        if not candidates:
            return []
        zones = _oracle_zone_names(candidates)
        offset = self._cursor % len(zones)
        self._cursor += 1
        return _oracle_interleave_zones(
            candidates, zones[offset:] + zones[:offset])


class OracleZoneLocal:
    def __init__(self, local_zone: Optional[str] = None) -> None:
        self.local_zone = local_zone

    def rank(self, candidates: Sequence) -> List:
        if not candidates:
            return []
        zones = _oracle_zone_names(candidates)
        local = self.local_zone if self.local_zone in zones else zones[0]
        zones.remove(local)
        return (_oracle_interleave_zones(candidates, (local,))
                + _oracle_interleave_zones(candidates, zones))


class OracleWeightedP99:
    def start_run(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def rank(self, candidates: Sequence) -> List:
        if len(candidates) <= 1:
            return list(candidates)
        weights = np.array(
            [1.0 / (r.p99() + _P99_EPSILON) for r in candidates])
        primary = int(self._rng.choice(
            len(candidates), p=weights / weights.sum()))
        rest = sorted(
            (r for i, r in enumerate(candidates) if i != primary),
            key=lambda r: (r.p99(), r.index))
        return [candidates[primary]] + rest


# -- shipped vs oracle over decision sequences ---------------------------------

@st.composite
def moving_fleets(draw):
    """One fleet of zoned doubles and, per decision, the
    change made before it: tied loads, a replica that moves zone, a
    replica that leaves or rejoins the candidate set."""
    fleet = draw(candidate_sets())
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        steps.append((
            draw(st.integers(0, 40)),                 # which replica
            draw(st.integers(0, 3)),                  # its new load
            draw(st.sampled_from(ZONES + ("z0", None))),  # its new zone
            draw(st.integers(0, 3)),                  # how many sit out
        ))
    return fleet, steps


def apply_step(fleet, step):
    pick, load, zone, sit_out = step
    if not fleet:
        return []
    replica = fleet[pick % len(fleet)]
    replica.outstanding = load
    if zone is not None:
        replica.zone = zone  # the same index, a different fault domain
    # The candidates are a fresh list each decision, as _dispatch builds.
    return [r for i, r in enumerate(fleet) if (i + pick) % 4 >= sit_out]


def same_objects(left, right):
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right))


@settings(max_examples=200, deadline=None)
@given(moving_fleets())
def test_zone_spread_ranks_as_shipped(case):
    fleet, steps = case
    policy = started(ZoneSpreadPolicy())
    oracle = started(OracleZoneSpread())
    for step in steps:
        candidates = apply_step(fleet, step)
        expected = oracle.rank(candidates)
        assert same_objects(policy.rank_for(None, candidates), expected)
        if expected:
            expected[0].outstanding += 1  # the primary takes the query


@settings(max_examples=200, deadline=None)
@given(moving_fleets())
def test_zone_local_ranks_as_shipped(case):
    fleet, steps = case
    policy = started(ZoneLocalPolicy())
    oracle = OracleZoneLocal()
    for step in steps:
        candidates = apply_step(fleet, step)
        expected = oracle.rank(candidates)
        assert same_objects(policy.rank_for(None, candidates), expected)
        if expected:
            expected[0].outstanding += 1


@settings(max_examples=150, deadline=None)
@given(candidate_sets(), st.permutations(ZONES + ("z0",)),
       st.integers(0, 5))
def test_interleave_deals_as_shipped(candidates, zone_order, keep):
    # Any zone order, including zones nobody lives in and candidates
    # whose zone the order leaves out.
    order = zone_order[:keep]
    assert same_objects(_interleave_zones(candidates, order),
                        _oracle_interleave_zones(candidates, order))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 5),
                          st.sampled_from([0.0, 0.001, 0.002, 0.01, 0.5]),
                          st.integers(0, 3)),
                min_size=1, max_size=40))
def test_weighted_p99_ranks_and_draws_as_shipped(n, seed, moves):
    # Short windows, so observations slide old ones out; tied p99s
    # (equal latencies, empty windows) fall back to the index.
    fleet = [Replica(i, sut=None, clock=lambda: 0.0, latency_window=4)
             for i in range(n)]
    policy = WeightedP99Policy()
    policy.start_run(np.random.default_rng(seed))
    oracle = OracleWeightedP99()
    oracle.start_run(np.random.default_rng(seed))
    for pick, latency, sit_out in moves:
        fleet[pick % n].observe_latency(latency)
        candidates = [r for r in fleet if (r.index + pick) % 4 >= sit_out]
        assert same_objects(policy.rank_for(None, candidates),
                            oracle.rank(candidates))
    assert (policy._rng.bit_generator.state
            == oracle._rng.bit_generator.state)


# -- a zoned fleet through a zone outage, pinned --------------------------------

class _ZoneOutage:
    """Kills zone ``z0`` at 0.15 s and restores it at 0.35 s."""

    def __init__(self, fleet):
        self.fleet = fleet

    def start(self, loop, keep_going):
        loop.schedule_after(0.15, lambda: self.fleet.kill_zone("z0"))
        loop.schedule_after(0.35, lambda: self.fleet.restore_zone("z0"))

    def stop(self):
        pass


#: sha256 of the ``query id:replica`` lines, one per served or rescued
#: query, of the run below (recorded from the shipped ranking code).
ZONE_OUTAGE_ROUTING_SHA256 = (
    "615b70979c9487587ce5e22276fecb7dd362e9081a7ee4fa47320cbe110b22b2")


def test_zone_spread_routing_through_a_zone_outage_is_pinned():
    # Four replicas, two zones, each replica a different speed so loads
    # differ and tie by turns; zone z0 dies mid-run and comes back.
    fleet = ReplicaSet(lambda i: FixedLatencySUT(latency=0.002 * (i + 1)),
                       policy="zone-spread", initial_replicas=4, zones=2,
                       seed=3)
    trail = []
    fleet.policy.notify_served = lambda q, i: trail.append(f"{q.id}:{i}")
    fleet.policy.notify_rescued = lambda q, i: trail.append(f"{q.id}>{i}")
    settings_ = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=1000.0,
        server_latency_bound=0.05, min_query_count=600, min_duration=0.0,
        watchdog_timeout=60.0, seed=3)
    result = run_benchmark(fleet, EchoQSL(), settings_,
                           services=[_ZoneOutage(fleet)])
    assert fleet.stats.zone_kills == 1
    assert len(result.log.completed_records()) == 600
    assert sum(">" in line for line in trail) > 0  # rescues happened
    digest = hashlib.sha256("\n".join(trail).encode()).hexdigest()
    assert digest == ZONE_OUTAGE_ROUTING_SHA256
