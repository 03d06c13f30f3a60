"""Replay-graph generation: determinism, shape bounds, prefix growth."""

import numpy as np
import pytest

from repro.core import Scenario, TestSettings
from repro.core.query import SessionTurn
from repro.sessions import (
    SESSION_TAG,
    ReplayGraph,
    SessionProfile,
    replay_graph_from_settings,
)

pytestmark = pytest.mark.sessions


def profile(**overrides):
    base = dict(turns_min=2, turns_max=8, think_time_mean=2.0,
                new_tokens_min=16, new_tokens_max=128, seed=42)
    base.update(overrides)
    return SessionProfile(**base)


def test_plans_are_bit_identical_across_instances():
    first, second = profile(), profile()
    for user_id in range(50):
        assert first.plan(user_id) == second.plan(user_id)


def every_plan(graph):
    return [graph.plan(user_id) for user_id in range(graph.session_count)]


def test_graph_fingerprint_is_deterministic_and_seed_sensitive():
    a = ReplayGraph(profile(), 40)
    b = ReplayGraph(profile(), 40)
    c = ReplayGraph(profile(seed=43), 40)
    assert every_plan(a) == every_plan(b)
    assert every_plan(a) != every_plan(c)


def test_users_are_independent_streams():
    # Planning users in different orders must not change any plan: each
    # user's draws come from SeedSequence((seed, user_id, tag)), not a
    # shared stream.
    forward = ReplayGraph(profile(), 20)
    backward = ReplayGraph(profile(), 20)
    for user_id in range(20):
        forward.plan(user_id)
    for user_id in reversed(range(20)):
        backward.plan(user_id)
    assert every_plan(forward) == every_plan(backward)


def test_draws_use_the_documented_seed_domain():
    # The contract docs/sessions.md promises: the first draw for user u
    # comes from SeedSequence((seed, u, 0x5E55)).  Re-derive turn counts
    # independently and compare.
    p = profile()
    for user_id in (0, 7, 31):
        rng = np.random.default_rng(
            np.random.SeedSequence((p.seed, user_id, SESSION_TAG)))
        expected_turns = int(rng.integers(p.turns_min, p.turns_max + 1))
        assert p.plan(user_id).turn_count == expected_turns


def test_plan_shapes_respect_the_configured_bounds():
    p = profile(turns_min=3, turns_max=5, new_tokens_min=10,
                new_tokens_max=20)
    for user_id in range(100):
        plan = p.plan(user_id)
        assert 3 <= plan.turn_count <= 5
        for turn in plan.turns:
            assert 10 <= turn.new_tokens <= 20
            assert 10 <= turn.response_tokens <= 20
            assert turn.think_time >= 0.0
        assert plan.turns[0].think_time == 0.0
        assert plan.turns[0].prefix_tokens == 0


def test_prefix_accumulates_prompt_and_response_tokens():
    plan = profile().plan(3)
    expected_prefix = 0
    for turn in plan.turns:
        assert turn.prefix_tokens == expected_prefix
        expected_prefix += turn.new_tokens + turn.response_tokens


def test_zero_think_time_disables_thinking():
    plan = profile(think_time_mean=0.0).plan(5)
    assert all(turn.think_time == 0.0 for turn in plan.turns)


def test_turn_tag_matches_the_plan():
    plan = profile().plan(9)
    tag = plan.turn_tag(1)
    assert tag.session_id == 9
    assert tag.turn_index == 1
    assert tag.turn_count == plan.turn_count
    assert tag.prefix_tokens == plan.turns[1].prefix_tokens


def test_from_settings_round_trip():
    settings = TestSettings(
        scenario=Scenario.SESSION, server_target_qps=10.0,
        session_count=7, session_turns_min=3, session_turns_max=4,
        session_think_time_mean=1.5, session_new_tokens_min=8,
        session_new_tokens_max=9, seed=11)
    graph = replay_graph_from_settings(settings)
    assert graph.session_count == 7
    assert graph.profile == SessionProfile(
        turns_min=3, turns_max=4, think_time_mean=1.5,
        new_tokens_min=8, new_tokens_max=9, seed=11)


def test_invalid_profiles_are_rejected():
    with pytest.raises(ValueError):
        profile(turns_min=0)
    with pytest.raises(ValueError):
        profile(turns_max=1, turns_min=2)
    with pytest.raises(ValueError):
        profile(think_time_mean=-1.0)
    with pytest.raises(ValueError):
        profile(new_tokens_min=0)
    with pytest.raises(ValueError):
        profile(new_tokens_max=8, new_tokens_min=9)
    with pytest.raises(ValueError):
        ReplayGraph(profile(), 0)
    with pytest.raises(ValueError):
        ReplayGraph(profile(), 4).plan(4)


def test_turn_tag_is_the_keyword_built_session_turn():
    # Whatever builds the tag, it is the SessionTurn the keyword
    # constructor gives: same type, equality, repr and field dict.
    for user_id in range(20):
        plan = profile().plan(user_id)
        for index, turn in enumerate(plan.turns):
            tag = plan.turn_tag(index)
            built = SessionTurn(
                session_id=user_id, turn_index=turn.turn_index,
                turn_count=len(plan.turns),
                prefix_tokens=turn.prefix_tokens,
                new_tokens=turn.new_tokens,
                response_tokens=turn.response_tokens)
            assert type(tag) is SessionTurn
            assert tag == built
            assert repr(tag) == repr(built)
            assert tag._asdict() == built._asdict()
