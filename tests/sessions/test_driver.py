"""SessionDriver behavior: turn ordering, think times, lifecycle counts."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.metrics import MetricsRegistry

from tests.conftest import EchoQSL, FixedLatencySUT

pytestmark = pytest.mark.sessions


def settings(**overrides):
    base = dict(
        scenario=Scenario.SESSION, server_target_qps=100.0,
        session_count=16, session_think_time_mean=0.05,
        min_duration=0.0, watchdog_timeout=600.0, seed=3)
    base.update(overrides)
    return TestSettings(**base)


def session_run(run_settings=None, sut=None, **kwargs):
    return run_benchmark(
        sut if sut is not None else FixedLatencySUT(latency=0.002),
        EchoQSL(), run_settings if run_settings is not None else settings(),
        **kwargs)


def test_every_session_completes_and_the_run_is_valid():
    result = session_run()
    assert result.valid, result.validity.reasons
    assert result.stats.sessions_started == 16
    assert result.stats.sessions_completed == 16
    assert result.stats.sessions_aborted == 0
    session = result.metrics.session
    assert session is not None
    assert session.completed_session_count == 16
    assert session.turn_count == result.metrics.query_count


def test_turns_are_strictly_ordered_within_each_session():
    result = session_run()
    by_session = {}
    for record in result.log.completed_records():
        session_id = record.query.session.session_id
        by_session.setdefault(session_id, []).append(record)
    assert len(by_session) == 16
    for records in by_session.values():
        records.sort(key=lambda r: r.issue_time)
        for position, record in enumerate(records):
            assert record.query.session.turn_index == position
        # Turn N+1 must issue only after turn N completed.
        for earlier, later in zip(records, records[1:]):
            assert later.issue_time >= earlier.completion_time


def test_think_time_separates_consecutive_turns():
    from repro.sessions import replay_graph_from_settings

    run_settings = settings(session_think_time_mean=0.2)
    result = session_run(run_settings)
    graph = replay_graph_from_settings(run_settings)
    checked = 0
    by_session = {}
    for record in result.log.completed_records():
        session_id = record.query.session.session_id
        by_session.setdefault(session_id, []).append(record)
    for session_id, records in by_session.items():
        records.sort(key=lambda r: r.issue_time)
        plan = graph.plan(session_id)
        for earlier, later in zip(records, records[1:]):
            think = plan.turns[later.query.session.turn_index].think_time
            gap = later.issue_time - earlier.completion_time
            assert gap == pytest.approx(think, abs=1e-9)
            checked += 1
    assert checked > 0


def test_primary_metric_is_completed_sessions_per_second():
    result = session_run()
    assert result.metrics.primary_metric_name == "completed sessions/s"
    assert result.metrics.primary_metric == pytest.approx(
        result.metrics.session.sessions_per_second)
    assert "Sessions          : 16/16 completed" in result.summary()


def test_session_queries_carry_their_tags_into_the_jsonl_trace():
    result = session_run()
    trace = result.log.to_jsonl()
    assert '"session_id"' in trace
    assert '"turn_index"' in trace
    assert '"prefix_tokens"' in trace


def test_session_metrics_registry_families():
    registry = MetricsRegistry()
    result = session_run(registry=registry)
    assert result.valid
    assert registry.get("session_started_total").value == 16
    assert registry.get("session_completed_total").value == 16
    assert registry.get("session_aborted_total").value == 0
    assert registry.get("session_turns_total").value == \
        result.metrics.query_count
    assert registry.get("session_duration_seconds").labels().count == 16
    assert registry.get("session_active").value == 0


def test_failed_turn_aborts_its_session_not_the_harness():
    from repro.core.query import QuerySampleResponse
    from repro.core.sut import SutBase

    class FailNthTurnSUT(SutBase):
        """Fails every session's second turn; other turns complete."""

        def __init__(self):
            super().__init__("fail-second-turn")

        def issue_query(self, query):
            if query.session is not None and query.session.turn_index == 1:
                self.loop.schedule_after(
                    0.001, lambda: self.fail(query, "backend exploded"))
                return
            responses = [
                QuerySampleResponse(s.id, s.index) for s in query.samples
            ]
            self.loop.schedule_after(
                0.001, lambda: self.complete(query, responses))

    result = session_run(sut=FailNthTurnSUT())
    assert not result.valid
    assert result.stats.sessions_started == 16
    assert result.stats.sessions_completed == 0
    assert result.stats.sessions_aborted == 16
    assert any("aborted after a failed turn" in reason
               for reason in result.validity.reasons)
    # No stalled sessions: the run drained cleanly despite the failures.
    assert not any("stalled" in reason for reason in result.validity.reasons)


def test_too_few_completed_sessions_invalidates_the_run():
    # Ask for more sessions than the driver replays by pretending the
    # settings demand 32 while the graph only holds 16: simplest is to
    # require a higher session_count on a copy used for validation.
    from repro.core.validation import validate_run

    result = session_run()
    stricter = settings(session_count=32)
    report = validate_run(result.log, stricter, result.stats)
    assert not report.valid
    assert any("minimum is 32" in reason for reason in report.reasons)
