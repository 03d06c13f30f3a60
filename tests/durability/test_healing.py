"""SelfHealingSUT: shedding, standby reroute, hedging, failover."""

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.durability import BreakerPolicy, BreakerState, SelfHealingSUT
from repro.faults import OutageSUT
from repro.metrics import MetricsRegistry
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL, FixedLatencySUT

POLICY = BreakerPolicy(window=10, failure_threshold=0.5, min_samples=4,
                       open_duration=0.2, half_open_probes=2)


def server_settings(queries=120, qps=200.0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=0.05, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=30.0)


class MalformedSUT(SutBase):
    """Answers instantly but with wrong sample ids: a flawed primary."""

    def __init__(self):
        super().__init__("malformed")

    def issue_query(self, query):
        self.complete(query, [
            QuerySampleResponse(s.id + 5555, None) for s in query.samples
        ])


class TestOutageNoStandby:
    def test_breaker_sheds_load_instead_of_burning_deadlines(self):
        primary = OutageSUT(FixedLatencySUT(0.002), outage_start=0.1,
                            outage_duration=0.3)
        sut = SelfHealingSUT(primary, policy=POLICY, attempt_timeout=0.02)
        result = run_benchmark(sut, EchoQSL(), server_settings())
        # The run terminates (no hang), the breaker tripped, and the
        # open state rejected queries in O(1) with a classified reason.
        assert not result.valid
        assert sut.stats.shed_queries > 0
        assert sut.breaker.stats.opens >= 1
        assert any("circuit breaker open" in r.failure_reason
                   for r in result.log.records() if r.failure_reason)

    def test_breaker_recovers_after_the_outage(self):
        primary = OutageSUT(FixedLatencySUT(0.002), outage_start=0.05,
                            outage_duration=0.2)
        sut = SelfHealingSUT(primary, policy=POLICY, attempt_timeout=0.02)
        run_benchmark(sut, EchoQSL(), server_settings(queries=300))
        # closed -> open at trip, then probes eventually close it again.
        pairs = [(s.value, d.value) for _, s, d in sut.breaker.transitions]
        assert ("closed", "open") in pairs
        assert ("half_open", "closed") in pairs
        assert sut.breaker.state is BreakerState.CLOSED


class TestStandby:
    def test_standby_carries_the_load_through_the_outage(self):
        primary = OutageSUT(FixedLatencySUT(0.002), outage_start=0.1,
                            outage_duration=0.3)
        standby = FixedLatencySUT(0.004, name="standby")
        sut = SelfHealingSUT(primary, standby, policy=POLICY,
                             attempt_timeout=0.02)
        result = run_benchmark(sut, EchoQSL(), server_settings())
        # Some queries die in the trip window, but everything shed while
        # open is answered by the standby instead of failing.
        assert sut.stats.standby_queries > 0
        assert sut.stats.standby_completions >= sut.stats.standby_queries
        assert sut.stats.shed_queries == 0
        completed = sum(1 for r in result.log.records()
                        if r.completion_time is not None)
        assert completed > sut.breaker.stats.rejected

    def test_healthy_primary_never_touches_the_standby(self):
        standby = FixedLatencySUT(0.004, name="standby")
        sut = SelfHealingSUT(FixedLatencySUT(0.002), standby, policy=POLICY,
                             attempt_timeout=0.02)
        result = run_benchmark(sut, EchoQSL(), server_settings())
        assert result.valid
        assert standby.issued == 0
        assert sut.stats.standby_completions == 0


class TestHedging:
    def test_slow_primary_is_hedged_and_the_standby_wins(self):
        # Primary at 15 ms vs a 5 ms hedge fires the standby (2 ms),
        # which always answers first; the filter absorbs the loser.
        primary = FixedLatencySUT(0.015)
        standby = FixedLatencySUT(0.002, name="standby")
        sut = SelfHealingSUT(primary, standby, policy=POLICY,
                             attempt_timeout=0.05, hedge_delay=0.005)
        result = run_benchmark(sut, EchoQSL(), server_settings())
        assert result.valid
        assert sut.stats.hedged_queries > 0
        assert sut.stats.hedge_wins > 0
        assert sut.stats.filtered_completions > 0  # primary stragglers

    def test_fast_primary_wins_and_hedges_stay_idle(self):
        primary = FixedLatencySUT(0.001)
        standby = FixedLatencySUT(0.002, name="standby")
        sut = SelfHealingSUT(primary, standby, policy=POLICY,
                             attempt_timeout=0.05, hedge_delay=0.01)
        result = run_benchmark(sut, EchoQSL(), server_settings())
        assert result.valid
        assert sut.stats.hedged_queries == 0


#: Never trips inside these runs.
QUIET = BreakerPolicy(window=1000, min_samples=1000)


class IssueTimes(EchoSUT):
    """An echo that notes ``(query id, run time)`` each time it is
    issued to."""

    def __init__(self, latency):
        super().__init__(latency=latency)
        self.issued_at = []

    def issue_query(self, query):
        self.issued_at.append((query.id, self.loop.now))
        super().issue_query(query)


def ten_qps(queries):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=10.0,
        server_latency_bound=10.0, min_query_count=queries,
        min_duration=0.0, seed=0)


class TestHedgeInstant:
    def test_a_primary_answer_on_the_hedge_instant_loses_to_the_hedge(self):
        """The hedge is taken before the primary's answer on its instant
        is heard; that answer then still wins the query."""
        sut = SelfHealingSUT(
            EchoSUT(latency=0.125), EchoSUT(latency=0.0625), policy=QUIET,
            attempt_timeout=0.25, hedge_delay=0.125)
        result = run_benchmark(sut, EchoQSL(), ten_qps(6))
        assert result.valid and result.log.query_count == 6
        assert (sut.stats.hedged_queries, sut.stats.hedge_wins,
                sut.stats.filtered_completions) == (6, 0, 6)
        assert sut.stats.standby_completions == 0
        assert all(r.completion_time == r.issue_time + 0.125
                   for r in result.log.records())

    def test_chunks_before_the_hedge_delay_do_not_move_the_hedge(self):
        """A streamed primary that is already talking is hedged all the
        same, at exactly ``issue + hedge_delay``."""
        model = StreamModel(first_token_delay=0.001, inter_token_delay=0.002,
                            min_tokens=10, max_tokens=10, seed=1)
        primary = StreamingSUT(EchoSUT(latency=0.001), model=model)
        standby = IssueTimes(latency=0.001)
        sut = SelfHealingSUT(
            primary, StreamingSUT(standby, model=model), policy=QUIET,
            attempt_timeout=0.05, hedge_delay=0.0101)
        result = run_benchmark(sut, EchoQSL(), ten_qps(8))
        records = result.log.records()
        assert len(records) == 8 and not result.log.failed_records()
        # The primary's chunks 0..4 (+2 .. +10 ms) were heard before the
        # hedge, so each stream restarted when the standby's began.
        assert result.metrics.stream.restart_count == 8
        assert sut.stats.hedged_queries == 8
        assert standby.issued_at == [
            (r.query.id, r.issue_time + 0.0101) for r in records]

    def test_no_hedge_after_a_failover(self):
        standby = FixedLatencySUT(0.02, name="standby")
        sut = SelfHealingSUT(MalformedSUT(), standby, policy=QUIET,
                             attempt_timeout=0.05, hedge_delay=0.01)
        result = run_benchmark(sut, EchoQSL(), server_settings(queries=40))
        assert result.valid
        assert sut.stats.failovers == standby.issued == 40
        assert sut.stats.hedged_queries == 0

    def test_no_hedge_on_a_breaker_probe(self):
        """Malformed until 0.1 s (the breaker trips and probes), then
        clean but slower than the hedge delay: the closed breaker's
        queries are hedged, its half-open probes never are."""

        class Phased(SutBase):
            def __init__(self):
                super().__init__("phased")
                self.late_probes = []

            def issue_query(self, query):
                now = self.loop.now
                if now < 0.1:
                    self.complete(query, [])
                    return
                if sut.breaker.state is BreakerState.HALF_OPEN:
                    self.late_probes.append(query.id)
                good = [QuerySampleResponse(s.id, s.index)
                        for s in query.samples]
                self.loop.schedule_after(
                    0.02, lambda: self.complete(query, good))

        primary, standby = Phased(), IssueTimes(latency=0.005)
        sut = SelfHealingSUT(
            primary, standby, attempt_timeout=0.05, hedge_delay=0.01,
            policy=BreakerPolicy(window=4, failure_threshold=0.5,
                                 min_samples=2, open_duration=0.05,
                                 half_open_probes=1))
        result = run_benchmark(
            sut, EchoQSL(), server_settings(queries=60, qps=100.0))
        assert result.valid
        assert primary.late_probes and sut.stats.hedged_queries > 0
        asked = {qid for qid, _ in standby.issued_at}
        assert asked.isdisjoint(primary.late_probes)


class TestFailover:
    def test_flawed_primary_fails_over_to_the_standby(self):
        standby = FixedLatencySUT(0.002, name="standby")
        sut = SelfHealingSUT(MalformedSUT(), standby, policy=POLICY,
                             attempt_timeout=0.05)
        result = run_benchmark(sut, EchoQSL(), server_settings(queries=40))
        # Every query is answered badly by the primary, fails over, and
        # completes cleanly on the standby.
        assert result.valid
        assert sut.stats.failovers > 0
        assert sut.stats.standby_completions > 0
        assert sut.stats.primary_failures > 0

    def test_flawed_primary_without_standby_fails_the_query(self):
        sut = SelfHealingSUT(MalformedSUT(), policy=POLICY,
                             attempt_timeout=0.05)
        result = run_benchmark(sut, EchoQSL(), server_settings(queries=40))
        assert not result.valid
        assert any(r.failure_reason for r in result.log.records())


class TestMetricsAndValidation:
    def test_breaker_families_are_registered_and_move(self):
        registry = MetricsRegistry()
        primary = OutageSUT(FixedLatencySUT(0.002), outage_start=0.1,
                            outage_duration=0.3)
        standby = FixedLatencySUT(0.004, name="standby")
        sut = SelfHealingSUT(primary, standby, policy=POLICY,
                             attempt_timeout=0.02, registry=registry)
        run_benchmark(sut, EchoQSL(), server_settings())
        assert registry.get("breaker_rejected_queries_total").value > 0
        assert registry.get("breaker_standby_completions_total").value > 0
        assert registry.get("breaker_recorded_failures_total").value > 0
        transitions = registry.get("breaker_transitions_total")
        seen = {(labels["source"], labels["target"]): child.value
                for labels, child in transitions.series()}
        assert seen[("closed", "open")] >= 1
        # The state gauge is callback-backed off the live breaker.
        assert registry.get("breaker_state").value in (0.0, 1.0, 2.0)

    def test_hedge_delay_requires_a_standby(self):
        with pytest.raises(ValueError):
            SelfHealingSUT(FixedLatencySUT(), hedge_delay=0.01)

    def test_hedge_delay_must_undercut_the_deadline(self):
        with pytest.raises(ValueError):
            SelfHealingSUT(FixedLatencySUT(), FixedLatencySUT(name="s"),
                           attempt_timeout=0.05, hedge_delay=0.05)

    def test_attempt_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            SelfHealingSUT(FixedLatencySUT(), attempt_timeout=0.0)

    def test_breaker_property_requires_a_run(self):
        sut = SelfHealingSUT(FixedLatencySUT())
        with pytest.raises(RuntimeError):
            sut.breaker
