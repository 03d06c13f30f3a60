"""CircuitBreaker state machine: trip, reject, probe, close, re-trip."""

import math

import pytest

from repro.durability import (
    STATE_CODES,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
)


class Clock:
    """A hand-cranked injected clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make(clock, **policy):
    defaults = dict(window=10, failure_threshold=0.5, min_samples=4,
                    open_duration=1.0, half_open_probes=2)
    defaults.update(policy)
    return CircuitBreaker(BreakerPolicy(**defaults), clock=clock)


def fail_until_open(breaker):
    while breaker.state is BreakerState.CLOSED:
        assert breaker.admit() == "admit"
        breaker.record_failure()


class TestClosed:
    def test_starts_closed_and_admits(self):
        b = make(Clock())
        assert b.state is BreakerState.CLOSED
        assert b.admit() == "admit"

    def test_stays_closed_below_min_samples(self):
        b = make(Clock(), min_samples=4)
        for _ in range(3):
            b.admit()
            b.record_failure()
        assert b.state is BreakerState.CLOSED
        assert b.failure_rate == 1.0

    def test_trips_at_threshold_with_enough_samples(self):
        b = make(Clock(), min_samples=4, failure_threshold=0.5)
        outcomes = [True, True, False, False]  # rate hits 0.5 at n=4
        for ok in outcomes:
            b.admit()
            b.record_success() if ok else b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.stats.opens == 1

    def test_successes_keep_the_rate_below_threshold(self):
        b = make(Clock(), min_samples=4, failure_threshold=0.5)
        for i in range(20):
            b.admit()
            if i % 4 == 0:  # 25% failure rate, always below the line
                b.record_failure()
            else:
                b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_window_slides_old_outcomes_out(self):
        b = make(Clock(), window=4, min_samples=4)
        for _ in range(8):  # ancient successes slide out entirely
            b.admit()
            b.record_success()
        for _ in range(2):
            b.admit()
            b.record_failure()
        # Window holds [ok, ok, fail, fail]: exactly at the 0.5 line.
        assert b.state is BreakerState.OPEN


class TestOpen:
    def test_open_rejects_until_the_cooldown_elapses(self):
        clock = Clock()
        b = make(clock, open_duration=1.0)
        fail_until_open(b)
        assert b.admit() == "reject"
        clock.advance(0.5)
        assert b.admit() == "reject"
        assert b.stats.rejected == 2

    def test_cooldown_expiry_moves_to_half_open_probe(self):
        clock = Clock()
        b = make(clock, open_duration=1.0)
        fail_until_open(b)
        clock.advance(1.0)
        assert b.admit() == "probe"
        assert b.state is BreakerState.HALF_OPEN

    def test_straggler_outcomes_while_open_are_ignored(self):
        clock = Clock()
        b = make(clock)
        fail_until_open(b)
        b.record_success()  # a late completion from before the trip
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.admit() == "reject"


class TestHalfOpen:
    def open_then_cool(self, clock=None, **policy):
        clock = clock or Clock()
        b = make(clock, **policy)
        fail_until_open(b)
        clock.advance(b.policy.open_duration)
        return b, clock

    def test_probe_budget_is_bounded(self):
        b, _ = self.open_then_cool(half_open_probes=2)
        assert b.admit() == "probe"
        assert b.admit() == "probe"
        assert b.admit() == "reject"  # budget spent, outcomes pending
        assert b.stats.probes == 2

    def test_enough_probe_successes_close_the_breaker(self):
        b, _ = self.open_then_cool(half_open_probes=2)
        b.admit()
        b.admit()
        b.record_success(probe=True)
        assert b.state is BreakerState.HALF_OPEN  # one is not enough
        b.record_success(probe=True)
        assert b.state is BreakerState.CLOSED
        assert b.stats.closes == 1
        assert b.admit() == "admit"

    def test_one_probe_failure_reopens(self):
        clock = Clock()
        b, _ = self.open_then_cool(clock=clock, half_open_probes=2)
        b.admit()
        b.record_failure(probe=True)
        assert b.state is BreakerState.OPEN
        assert b.stats.opens == 2
        # ... and the new cooldown starts from the re-trip.
        clock.advance(b.policy.open_duration - 0.01)
        assert b.admit() == "reject"
        clock.advance(0.02)
        assert b.admit() == "probe"

    def test_closing_clears_the_failure_window(self):
        b, _ = self.open_then_cool(half_open_probes=1, min_samples=4)
        b.admit()
        b.record_success(probe=True)
        assert b.state is BreakerState.CLOSED
        # The pre-trip failures must not count toward the next trip.
        b.admit()
        b.record_failure()
        assert b.state is BreakerState.CLOSED


class TestBookkeeping:
    def test_transitions_are_logged_with_timestamps(self):
        clock = Clock()
        b = make(clock, open_duration=1.0, half_open_probes=1)
        fail_until_open(b)
        clock.advance(1.0)
        b.admit()
        b.record_success(probe=True)
        assert [(src.value, dst.value) for _, src, dst in b.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        times = [t for t, _, _ in b.transitions]
        assert times == sorted(times)

    def test_on_transition_callback_fires(self):
        seen = []
        b = CircuitBreaker(
            BreakerPolicy(min_samples=1, failure_threshold=1.0),
            clock=lambda: 7.0,
            on_transition=lambda t, s, d: seen.append((t, s, d)))
        b.admit()
        b.record_failure()
        assert seen == [(7.0, BreakerState.CLOSED, BreakerState.OPEN)]

    def test_state_codes_cover_every_state(self):
        assert set(STATE_CODES) == set(BreakerState)
        assert len(set(STATE_CODES.values())) == len(BreakerState)


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(window=0),
        dict(failure_threshold=0.0),
        dict(failure_threshold=1.5),
        dict(min_samples=0),
        dict(min_samples=21),  # > default window of 20
        dict(open_duration=0.0),
        dict(half_open_probes=0),
    ])
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BreakerPolicy(**kwargs)

    @pytest.mark.parametrize("open_duration", [math.nan, math.inf])
    def test_open_duration_must_be_finite(self, open_duration):
        """NaN passed the ``<= 0`` check, and a breaker that tripped then
        never left OPEN: the rest of the run was shed."""
        with pytest.raises(ValueError, match="open_duration must be positive"):
            BreakerPolicy(open_duration=open_duration)
