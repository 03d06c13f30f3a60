"""Full-jitter retry backoff: seeded, decorrelated, bounded."""

import numpy as np
import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.faults import FaultPlan, FaultType, FaultySUT, ResilientSUT
from repro.faults.resilient import RetryPolicy

from tests.conftest import EchoQSL, FixedLatencySUT

POLICY = RetryPolicy(backoff_base=0.002)


class TestDraws:
    def test_jitter_is_a_pure_function_of_seed_query_attempt(self):
        a = POLICY.jittered_backoff(2, seed=7, query_id=31)
        b = POLICY.jittered_backoff(2, seed=7, query_id=31)
        assert a == b

    def test_draw_lands_inside_the_ceiling(self):
        for attempt in range(4):
            ceiling = POLICY.backoff(attempt)
            for qid in range(20):
                d = POLICY.jittered_backoff(attempt, seed=3, query_id=qid)
                assert 0.0 <= d < ceiling

    def test_jitter_none_returns_the_deterministic_ceiling(self):
        policy = RetryPolicy(jitter="none", backoff_base=0.002)
        assert policy.jittered_backoff(1, seed=9, query_id=5) == \
            policy.backoff(1)

    def test_unknown_jitter_mode_is_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter="sometimes")

    def test_zero_base_backoff_stays_zero(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.jittered_backoff(3, seed=1, query_id=1) == 0.0


class TestDecorrelation:
    """The regression the jitter exists for: concurrent retriers must
    not retry in lockstep, and the decorrelation must hold across
    queries, attempts, and seeds."""

    def test_queries_spread_uniformly_below_the_ceiling(self):
        attempt = 2
        ceiling = POLICY.backoff(attempt)
        draws = np.array([
            POLICY.jittered_backoff(attempt, seed=0, query_id=qid)
            for qid in range(500)
        ])
        # Practically all distinct (a lockstep stampede would collapse
        # them onto one value) and filling the interval, not a corner.
        assert len(np.unique(draws)) >= 495
        assert draws.min() < 0.1 * ceiling
        assert draws.max() > 0.9 * ceiling
        assert 0.4 * ceiling < draws.mean() < 0.6 * ceiling

    def test_draws_do_not_trend_with_the_query_id(self):
        attempt = 1
        draws = np.array([
            POLICY.jittered_backoff(attempt, seed=0, query_id=qid)
            for qid in range(500)
        ])
        corr = np.corrcoef(np.arange(500), draws)[0, 1]
        assert abs(corr) < 0.15

    def test_attempts_of_one_query_are_mutually_decorrelated(self):
        # Same query retried repeatedly must not reuse its first draw
        # scaled up - each attempt gets an independent stream.
        fractions = [
            POLICY.jittered_backoff(a, seed=5, query_id=77)
            / POLICY.backoff(a)
            for a in range(6)
        ]
        assert len(set(round(f, 9) for f in fractions)) == 6

    def test_distinct_seeds_yield_distinct_schedules(self):
        a = [POLICY.jittered_backoff(1, seed=1, query_id=q)
             for q in range(50)]
        b = [POLICY.jittered_backoff(1, seed=2, query_id=q)
             for q in range(50)]
        assert a != b


class TestEndToEnd:
    def test_retried_run_is_reproducible_for_a_fixed_seed(self):
        def run():
            plan = FaultPlan.single(FaultType.DROP, 0.3, seed=11)
            sut = ResilientSUT(FaultySUT(FixedLatencySUT(0.002), plan),
                               RetryPolicy(attempt_timeout=0.02), seed=4)
            settings = TestSettings(
                scenario=Scenario.SINGLE_STREAM, min_query_count=64,
                min_duration=0.0, seed=4)
            result = run_benchmark(sut, EchoQSL(), settings)
            return ([r.completion_time for r in result.log.records()],
                    sut.stats.retries)

        first = run()
        second = run()
        assert first == second
        assert first[1] > 0  # the drops actually forced retries

    def test_sut_seed_perturbs_only_the_retry_tail(self):
        def latencies(sut_seed):
            plan = FaultPlan.single(FaultType.DROP, 0.3, seed=11)
            sut = ResilientSUT(FaultySUT(FixedLatencySUT(0.002), plan),
                               RetryPolicy(attempt_timeout=0.02),
                               seed=sut_seed)
            settings = TestSettings(
                scenario=Scenario.SINGLE_STREAM, min_query_count=64,
                min_duration=0.0, seed=4)
            result = run_benchmark(sut, EchoQSL(), settings)
            return [r.completion_time for r in result.log.records()]

        base, other = latencies(0), latencies(1)
        # Clean queries (no retry) complete identically; retried ones
        # moved because their backoff draws come from the new seed.
        assert base != other
        same = sum(1 for x, y in zip(base, other) if x == y)
        assert same > 0
