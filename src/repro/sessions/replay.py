"""Seeded conversation-replay graphs: who talks, how long, with what gaps.

Production traffic from millions of users is not a stream of independent
queries - it is *sessions*: multi-turn conversations where turn N+1
waits on turn N's answer plus a human think time, and each turn shares a
growing prefix with the ones before it.  This module generates that
workload deterministically: a :class:`SessionProfile` describes the
distributions (turn counts, think times, prompt/response growth) and
produces one :class:`SessionPlan` per user, every draw keyed by
``SeedSequence((seed, user_id, 0x5E55))`` - so the full replay graph is
a pure function of the run seed, independent per user, and
domain-separated from every other seeded subsystem (arrivals, stream
shapes, fault plans, loaded-set choice).

The plan is the shared source of truth: the
:class:`~repro.sessions.driver.SessionDriver` issues its turns, the
:class:`~repro.sessions.cache.PrefixCacheSUT` reuses the prefixes it
declares, and the cache *audit* recomputes expected hits from the graph
alone.  See ``docs/sessions.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, check_range
from ..core.config import TestSettings
from ..core.query import SessionTurn

#: SeedSequence domain tag for session replay-graph draws.
SESSION_TAG = 0x5E55


class TurnPlan(NamedTuple):
    """One planned conversation turn."""

    #: Zero-based position within the session.
    turn_index: int
    #: Seconds the user "thinks" after the previous turn's answer before
    #: sending this turn; 0.0 for the opening turn.
    think_time: float
    #: Context tokens shared with earlier turns (prompt + answers so
    #: far) - what a prefix cache can reuse.
    prefix_tokens: int
    #: Fresh prompt tokens this turn appends.
    new_tokens: int
    #: Planned answer length; it joins the next turn's prefix.
    response_tokens: int


class SessionPlan(NamedTuple):
    """The full planned conversation for one user."""

    user_id: int
    turns: Tuple[TurnPlan, ...]

    @property
    def turn_count(self) -> int:
        return len(self.turns)

    def turn_tag(self, turn_index: int) -> SessionTurn:
        """The :class:`~repro.core.query.SessionTurn` tag the driver
        attaches to this turn's query."""
        turns = self.turns
        turn = turns[turn_index]
        # A SessionTurn without its generated __new__'s Python frame;
        # the fields in SessionTurn's order.
        return tuple.__new__(SessionTurn, (
            self.user_id, turn.turn_index, len(turns), turn.prefix_tokens,
            turn.new_tokens, turn.response_tokens))


@dataclass(frozen=True)
class SessionProfile:
    """Distributions of conversation shapes, deterministic per user.

    Turn counts are uniform on ``[turns_min, turns_max]``; think times
    are exponential with mean ``think_time_mean`` (0 disables thinking -
    the stress/bench configuration); prompt and response token counts
    are uniform on ``[new_tokens_min, new_tokens_max]``.  Turn t's
    prefix is the running sum of all earlier turns' prompt and response
    tokens, which is exactly what a shared-prefix KV cache could reuse.
    """

    turns_min: int = 2
    turns_max: int = 8
    think_time_mean: float = 2.0
    new_tokens_min: int = 16
    new_tokens_max: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("turns_min", self.turns_min, AT_LEAST_ONE)
        if self.turns_max < self.turns_min:
            raise ValueError(
                f"turns_max must be >= turns_min, got {self.turns_max}"
            )
        check_range("think_time_mean", self.think_time_mean, NON_NEGATIVE)
        check_range("new_tokens_min", self.new_tokens_min, AT_LEAST_ONE)
        if self.new_tokens_max < self.new_tokens_min:
            raise ValueError(
                f"new_tokens_max must be >= new_tokens_min, got "
                f"{self.new_tokens_max}"
            )

    @classmethod
    def from_settings(cls, settings: TestSettings) -> "SessionProfile":
        """The profile a :class:`TestSettings` describes (plain data in,
        plain data out - journaled session runs rebuild it identically)."""
        return cls(
            turns_min=settings.session_turns_min,
            turns_max=settings.session_turns_max,
            think_time_mean=settings.session_think_time_mean,
            new_tokens_min=settings.session_new_tokens_min,
            new_tokens_max=settings.session_new_tokens_max,
            seed=settings.seed,
        )

    def plan(self, user_id: int) -> SessionPlan:
        """The deterministic conversation for one user."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, user_id, SESSION_TAG))
        )
        turn_count = int(rng.integers(self.turns_min, self.turns_max + 1))
        turns = []
        prefix = 0
        for index in range(turn_count):
            new_tokens = int(
                rng.integers(self.new_tokens_min, self.new_tokens_max + 1))
            response_tokens = int(
                rng.integers(self.new_tokens_min, self.new_tokens_max + 1))
            think = (
                0.0 if index == 0 or self.think_time_mean == 0.0
                else float(rng.exponential(self.think_time_mean))
            )
            turns.append(TurnPlan(
                turn_index=index,
                think_time=think,
                prefix_tokens=prefix,
                new_tokens=new_tokens,
                response_tokens=response_tokens,
            ))
            prefix += new_tokens + response_tokens
        return SessionPlan(user_id=user_id, turns=tuple(turns))


class ReplayGraph:
    """The generated session workload: one plan per user, lazily built.

    Plans are memoized (the driver asks for each user once, tests ask
    repeatedly) and :meth:`fingerprint` digests the whole graph into a
    hashable tuple - the determinism witness the session smoke test
    compares across seeded runs.
    """

    def __init__(self, profile: SessionProfile, session_count: int) -> None:
        check_range("session_count", session_count, AT_LEAST_ONE)
        self.profile = profile
        self.session_count = session_count
        self._plans = {}

    def plan(self, user_id: int) -> SessionPlan:
        if not 0 <= user_id < self.session_count:
            raise ValueError(
                f"user_id {user_id} outside [0, {self.session_count})")
        cached = self._plans.get(user_id)
        if cached is None:
            cached = self._plans[user_id] = self.profile.plan(user_id)
        return cached


def replay_graph_from_settings(settings: TestSettings) -> ReplayGraph:
    """The replay graph a session run with ``settings`` will issue."""
    return ReplayGraph(
        SessionProfile.from_settings(settings),
        settings.resolved_session_count,
    )
