"""ResilientSUT: bounded retries, deadlines, and response hygiene."""

import math

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.faults import (
    FaultPlan,
    FaultType,
    FaultySUT,
    ResilientSUT,
    RetryPolicy,
)

from tests.conftest import FixedLatencySUT


def quick_settings(**overrides):
    base = dict(scenario=Scenario.SINGLE_STREAM, min_query_count=20,
                min_duration=0.0, watchdog_timeout=60.0)
    base.update(overrides)
    return TestSettings(**base)


class DropFirstAttempt(SutBase):
    """Swallows the first issue of every query; answers re-issues."""

    def __init__(self, latency: float = 0.005) -> None:
        super().__init__("drop-first")
        self.latency = latency
        self.seen = {}

    def issue_query(self, query):
        attempt = self.seen.get(query.id, 0)
        self.seen[query.id] = attempt + 1
        if attempt == 0:
            return  # dropped on the floor
        responses = [QuerySampleResponse(s.id, s.index)
                     for s in query.samples]
        self.loop.schedule_after(
            self.latency, lambda: self.complete(query, responses))


class MissizeFirstAttempt(SutBase):
    """First attempt returns a truncated response set, later ones are fine."""

    def __init__(self) -> None:
        super().__init__("missize-first")
        self.seen = {}

    def issue_query(self, query):
        attempt = self.seen.get(query.id, 0)
        self.seen[query.id] = attempt + 1
        responses = [QuerySampleResponse(s.id, s.index)
                     for s in query.samples]
        if attempt == 0:
            responses = responses + [QuerySampleResponse(999_999, None)]
        self.loop.schedule_after(
            0.001, lambda: self.complete(query, responses))


class BlackHole(SutBase):
    def issue_query(self, query):
        pass


class AnswerLate(SutBase):
    """Answers every attempt 80 ms after its issue: with a failure, or
    with the echoed samples."""

    def __init__(self, fail: bool) -> None:
        super().__init__("answer-late")
        self.failing = fail
        self.issued = []

    def issue_query(self, query):
        self.issued.append(self.loop.now)
        self.loop.schedule_after(0.080, lambda: self._answer(query))

    def _answer(self, query):
        if self.failing:
            self.fail(query, "late failure")
        else:
            self.complete(query, [QuerySampleResponse(s.id, s.index)
                                  for s in query.samples])


class TestRetryPolicyValidation:
    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.max_attempts >= 2
        assert policy.backoff(1) == policy.backoff(0) * 2

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(attempt_timeout=0.0),
        dict(attempt_timeout=-1.0),
        dict(backoff_base=-0.001),
        dict(attempt_timeout=float("nan")),
        dict(attempt_timeout=float("inf")),
        dict(total_timeout=float("nan")),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        # Aborted the run from the engine's tick ("delay must be
        # non-negative, got nan").
        (dict(backoff_base=math.nan), "backoff_base must be >= 0"),
        # Never retried: the run ended on the watchdog.
        (dict(backoff_base=math.inf), "backoff_base must be >= 0"),
    ], ids=["nan-base", "inf-base"])
    def test_non_finite_backoff_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RetryPolicy(**kwargs)


class TestRecovery:
    def test_recovers_dropped_first_attempts(self, echo_qsl):
        sut = ResilientSUT(DropFirstAttempt(), RetryPolicy(
            max_attempts=3, attempt_timeout=0.020, backoff_base=0.001))
        result = run_benchmark(sut, echo_qsl, quick_settings())
        assert result.valid
        assert result.log.outstanding == 0
        assert sut.stats.retries == 20          # one retry per query
        assert sut.stats.recovered_queries == 20
        assert sut.stats.gave_up_queries == 0

    def test_retry_overhead_is_visible_in_latency(self, echo_qsl):
        policy = RetryPolicy(max_attempts=3, attempt_timeout=0.020,
                             backoff_base=0.001)
        flaky = run_benchmark(
            ResilientSUT(DropFirstAttempt(0.005), policy),
            echo_qsl, quick_settings())
        clean = run_benchmark(
            FixedLatencySUT(0.005), echo_qsl, quick_settings())
        # Recovered latency = timeout + backoff + service time.
        assert flaky.primary_metric == pytest.approx(0.026, rel=0.05)
        assert flaky.primary_metric > clean.primary_metric

    def test_malformed_attempts_retried_immediately(self, echo_qsl):
        sut = ResilientSUT(MissizeFirstAttempt(), RetryPolicy(
            max_attempts=3, attempt_timeout=0.050, backoff_base=0.001))
        result = run_benchmark(sut, echo_qsl, quick_settings())
        assert result.valid
        assert sut.stats.malformed_attempts == 20
        assert sut.stats.recovered_queries == 20
        # The referee never saw the malformed sets.
        assert result.log.anomaly_count == 0


class TestGivingUp:
    def test_black_hole_becomes_recorded_failures_not_hang(self, echo_qsl):
        policy = RetryPolicy(max_attempts=2, attempt_timeout=0.010,
                             backoff_base=0.001)
        sut = ResilientSUT(BlackHole("hole"), policy)
        # No watchdog needed: the retry deadline bounds the run.
        settings = quick_settings(min_query_count=5, watchdog_timeout=None)
        result = run_benchmark(sut, echo_qsl, settings)
        assert not result.valid
        assert sut.stats.gave_up_queries == 5
        assert result.log.outstanding == 0
        assert any("malformed responses" in r
                   for r in result.validity.reasons)
        assert all("no valid response after 2 attempts" == r.failure_reason
                   for r in result.log.failed_records())


class TestAnswersDuringTheBackoff:
    """The attempt lost at 50 ms answers at 80 ms, while the wrapper
    backs off before re-issuing."""

    POLICY = RetryPolicy(max_attempts=4, attempt_timeout=0.050,
                         backoff_base=0.050, jitter="none")

    def test_a_late_failure_is_absorbed_not_a_second_loss(self, echo_qsl):
        backend = AnswerLate(fail=True)
        sut = ResilientSUT(backend, self.POLICY)
        result = run_benchmark(sut, echo_qsl, quick_settings(min_query_count=1))
        # Each attempt is lost at its deadline and re-issued one backoff
        # later; counting its late failure as a loss as well re-issued
        # twice after the first and gave up after three attempts.
        assert backend.issued == pytest.approx([0.0, 0.10, 0.25, 0.50])
        assert (sut.stats.retries, sut.stats.malformed_attempts) == (3, 0)
        assert sut.stats.filtered_completions == 4
        [record] = result.log.failed_records()
        assert record.failure_reason == "no valid response after 4 attempts"
        assert record.failure_time == pytest.approx(0.55)

    def test_a_late_answer_still_completes_the_query(self, echo_qsl):
        backend = AnswerLate(fail=False)
        sut = ResilientSUT(backend, self.POLICY)
        result = run_benchmark(sut, echo_qsl, quick_settings(min_query_count=1))
        assert result.valid
        assert backend.issued == [0.0]
        assert (sut.stats.retries, sut.stats.recovered_queries) == (1, 1)
        [record] = result.log.completed_records()
        assert record.completion_time == pytest.approx(0.08)


class TestFiltering:
    def test_duplicates_filtered_run_stays_valid(self, echo_qsl):
        plan = FaultPlan.single(FaultType.DUPLICATE, 1.0)
        sut = ResilientSUT(FaultySUT(FixedLatencySUT(0.005), plan))
        result = run_benchmark(sut, echo_qsl, quick_settings())
        assert result.valid
        assert result.log.anomaly_count == 0
        assert sut.stats.filtered_completions == 20

    def test_unsolicited_filtered_run_stays_valid(self, echo_qsl):
        plan = FaultPlan.single(FaultType.UNSOLICITED, 1.0)
        sut = ResilientSUT(FaultySUT(FixedLatencySUT(0.005), plan))
        result = run_benchmark(sut, echo_qsl, quick_settings())
        assert result.valid
        assert result.log.anomaly_count == 0
        assert sut.stats.filtered_completions == 20


class TestTransientPlans:
    def test_transient_faults_recovered_to_valid_run(self, echo_qsl):
        """The acceptance bar: <= 5% transient-only faults, wrapped run
        comes out VALID with zero referee-visible anomalies."""
        plan = FaultPlan.transient(0.025, seed=11)  # 5% total
        sut = ResilientSUT(
            FaultySUT(FixedLatencySUT(0.005), plan),
            RetryPolicy(max_attempts=4, attempt_timeout=0.200,
                        backoff_base=0.002),
        )
        settings = quick_settings(min_query_count=200, watchdog_timeout=120.0)
        result = run_benchmark(sut, echo_qsl, settings)
        assert result.valid, result.validity.reasons
        assert result.log.outstanding == 0
        assert result.log.anomaly_count == 0
        assert sut.stats.gave_up_queries == 0
