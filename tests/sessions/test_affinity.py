"""SessionAffinityPolicy: served-feedback pinning, eviction, fallback."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.query import Query, QuerySample, SessionTurn
from repro.fleet import POLICY_NAMES, SessionAffinityPolicy, make_policy

pytestmark = pytest.mark.sessions


@dataclass
class FakeReplica:
    index: int
    outstanding: int = 0
    zone: str = "z0"


def query(session_id=None, turn_index=0, turn_count=4):
    q = Query(id=1, samples=(QuerySample(1, 0),))
    if session_id is not None:
        q.session = SessionTurn(
            session_id=session_id, turn_index=turn_index,
            turn_count=turn_count,
            prefix_tokens=0, new_tokens=8, response_tokens=8)
    return q


def fresh_policy():
    policy = SessionAffinityPolicy()
    policy.start_run(np.random.default_rng(0))
    return policy


def test_policy_is_registered():
    assert "session-affinity" in POLICY_NAMES
    assert isinstance(make_policy("session-affinity"),
                      SessionAffinityPolicy)


def test_turns_stick_to_the_replica_that_served_turn_zero():
    policy = fresh_policy()
    replicas = [FakeReplica(0, outstanding=5), FakeReplica(1, outstanding=0),
                FakeReplica(2, outstanding=3)]
    first = policy.rank_for(query(session_id=7, turn_index=0), replicas)
    assert first[0].index == 1  # least outstanding wins the opening turn
    # The fleet reports who actually served; the pin follows.
    policy.notify_served(query(session_id=7, turn_index=0), 1)
    # Later turns prefer the pinned replica even when it is now busiest.
    replicas[1].outstanding = 99
    later = policy.rank_for(query(session_id=7, turn_index=1), replicas)
    assert later[0].index == 1


def test_ranking_is_read_only_until_served_feedback_arrives():
    # Regression: rank_for used to re-pin to its own first preference
    # before dispatch, so a breaker-rejected first choice left the pin
    # pointing at a replica that never served the turn.
    policy = fresh_policy()
    replicas = [FakeReplica(0), FakeReplica(1, outstanding=9)]
    ranked = policy.rank_for(query(session_id=4, turn_index=0), replicas)
    assert ranked[0].index == 0
    # Ranking alone must not pin anything...
    assert policy._pins.get(4) is None
    assert len(policy._pins) == 0
    # ...the dispatch actually landed on replica 1 (0's breaker said no).
    policy.notify_served(query(session_id=4, turn_index=0), 1)
    assert policy._pins.get(4) == 1
    assert policy.rank_for(
        query(session_id=4, turn_index=1), replicas)[0].index == 1


def test_sessions_pin_independently():
    policy = fresh_policy()
    replicas = [FakeReplica(0), FakeReplica(1)]
    policy.notify_served(query(session_id=1, turn_index=0), 1)
    policy.notify_served(query(session_id=2, turn_index=0), 0)
    # Each session keeps its own pin.
    assert policy.rank_for(
        query(session_id=1, turn_index=1), replicas)[0].index == 1
    assert policy.rank_for(
        query(session_id=2, turn_index=1), replicas)[0].index == 0


def test_departed_pin_falls_back_without_repinning():
    policy = fresh_policy()
    replicas = [FakeReplica(0), FakeReplica(1)]
    policy.notify_served(query(session_id=3, turn_index=0), 0)
    # The pinned replica leaves the candidate set (scaled down / down):
    # ranking falls back to least-outstanding among the survivors...
    survivors = [FakeReplica(1, outstanding=2)]
    assert policy.rank_for(
        query(session_id=3, turn_index=1), survivors)[0].index == 1
    # ...but the pin only moves when the survivor actually serves.
    assert policy._pins.get(3) == 0
    policy.notify_served(query(session_id=3, turn_index=1), 1)
    both = [FakeReplica(0), FakeReplica(1, outstanding=9)]
    assert policy.rank_for(
        query(session_id=3, turn_index=2), both)[0].index == 1


def test_completed_session_releases_its_pin():
    policy = fresh_policy()
    policy.notify_served(query(session_id=9, turn_index=0, turn_count=2), 1)
    assert len(policy._pins) == 1
    # Final turn served: the conversation is over, the pin is evicted.
    policy.notify_served(query(session_id=9, turn_index=1, turn_count=2), 1)
    assert len(policy._pins) == 0
    assert policy._pins.get(9) is None


def test_failed_turn_releases_its_pin():
    policy = fresh_policy()
    policy.notify_served(query(session_id=11, turn_index=0), 0)
    assert len(policy._pins) == 1
    # The next turn is shed/failed: the session aborts, the pin goes.
    policy.notify_failed(query(session_id=11, turn_index=1))
    assert len(policy._pins) == 0


def test_pin_table_stays_bounded_over_many_sessions():
    # Regression for the unbounded-growth leak: a long run over many
    # users must not accumulate one pin per user forever.
    policy = fresh_policy()
    for user in range(10_000):
        policy.notify_served(
            query(session_id=user, turn_index=0, turn_count=2), user % 4)
        policy.notify_served(
            query(session_id=user, turn_index=1, turn_count=2), user % 4)
    assert len(policy._pins) == 0


def test_non_session_queries_route_least_outstanding():
    policy = fresh_policy()
    replicas = [FakeReplica(0, outstanding=4), FakeReplica(1, outstanding=2),
                FakeReplica(2, outstanding=7)]
    ranked = policy.rank_for(query(), replicas)
    assert [r.index for r in ranked] == [1, 0, 2]
    assert policy.rank_for(query(), []) == []
    # Serving a non-session query never creates routing state.
    policy.notify_served(query(), 2)
    policy.notify_failed(query())
    assert len(policy._pins) == 0
