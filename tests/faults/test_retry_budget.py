"""RetryPolicy.total_timeout: the deadline-aware retry budget."""

import pytest

from repro.core.events import EventLoop, VirtualClock
from repro.core.query import Query, QueryFailure, QuerySample
from repro.core.sut import SutBase
from repro.faults import ResilientSUT, RetryPolicy


class BlackholeSUT(SutBase):
    """Accepts every query and never answers."""

    def __init__(self):
        super().__init__("blackhole")
        self.attempts = 0

    def issue_query(self, query):
        self.attempts += 1

    def flush(self):
        pass


def run_one_query(policy):
    sut = ResilientSUT(BlackholeSUT(), policy)
    loop = EventLoop(VirtualClock())
    outcomes = []
    sut.start_run(loop, lambda q, r: outcomes.append((q, r)))
    sut.issue_query(Query(id=1, samples=(QuerySample(id=1, index=0),)))
    loop.run()
    assert len(outcomes) == 1
    return sut, loop, outcomes[0][1]


def test_validation_requires_one_attempt_to_fit():
    with pytest.raises(ValueError, match="total_timeout"):
        RetryPolicy(attempt_timeout=0.2, total_timeout=0.1)


class TestBudgetEnforcement:
    def test_query_resolves_at_the_budget_not_attempts_times_timeout(self):
        # 100 attempts x 50 ms would dangle for 5 s; the budget walls
        # the query at 120 ms.
        policy = RetryPolicy(max_attempts=100, attempt_timeout=0.05,
                             backoff_base=0.0, jitter="none",
                             total_timeout=0.12)
        sut, loop, response = run_one_query(policy)
        assert isinstance(response, QueryFailure)
        assert "retry budget exhausted" in response.reason
        assert loop.now == pytest.approx(0.12)
        # Two full attempts plus the clamped 20 ms remainder.
        assert sut.inner.attempts == 3

    def test_backoff_that_overruns_the_budget_is_clamped(self):
        policy = RetryPolicy(max_attempts=10, attempt_timeout=0.05,
                             backoff_base=1.0, jitter="none",
                             total_timeout=0.5)
        sut, loop, response = run_one_query(policy)
        assert isinstance(response, QueryFailure)
        assert "retry budget exhausted" in response.reason
        # Sleeping the full 1 s backoff would schedule the retry past
        # the budget; the clamp shortens it to 0.40 s so the second
        # attempt still gets its full 50 ms slice and the query
        # resolves exactly at the wall.
        assert loop.now == pytest.approx(0.5)
        assert sut.inner.attempts == 2

    def test_remainder_smaller_than_an_attempt_retries_immediately(self):
        policy = RetryPolicy(max_attempts=10, attempt_timeout=0.05,
                             backoff_base=1.0, jitter="none",
                             total_timeout=0.08)
        sut, loop, response = run_one_query(policy)
        assert isinstance(response, QueryFailure)
        assert "retry budget exhausted" in response.reason
        # After the first lost attempt only 30 ms of budget remain -
        # less than attempt_timeout - so the backoff clamps to zero and
        # the final attempt runs at once with the 30 ms remainder.
        assert loop.now == pytest.approx(0.08)
        assert sut.inner.attempts == 2

    def test_uncapped_behavior_is_unchanged(self):
        policy = RetryPolicy(max_attempts=4, attempt_timeout=0.05,
                             backoff_base=0.0, jitter="none")
        sut, loop, response = run_one_query(policy)
        assert isinstance(response, QueryFailure)
        assert "after 4 attempts" in response.reason
        assert loop.now == pytest.approx(0.2)
        assert sut.inner.attempts == 4

    def test_uncapped_worst_case_is_attempts_plus_backoff_ceilings(self):
        policy = RetryPolicy(max_attempts=3, attempt_timeout=0.1,
                             backoff_base=0.01, jitter="none")
        sut, loop, response = run_one_query(policy)
        assert isinstance(response, QueryFailure)
        # 3 x 0.1 + (0.01 + 0.02) between attempts.
        assert loop.now == pytest.approx(0.33)
        assert sut.inner.attempts == 3

    def test_full_jitter_stays_under_the_ceilings(self):
        policy = RetryPolicy(max_attempts=3, attempt_timeout=0.1,
                             backoff_base=0.01)
        sut, loop, response = run_one_query(policy)
        assert isinstance(response, QueryFailure)
        assert 0.3 <= loop.now < 0.33
        assert sut.inner.attempts == 3
