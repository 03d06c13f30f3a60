"""Token-level SLO metrics: fallbacks, percentiles, goodput, validation."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.logging import Completions, QueryLog
from repro.core.metrics import (
    effective_ttfts, effective_tpots, stream_metrics_of, stream_slo_counts,
)
from repro.core.query import (
    Query, QuerySample, QuerySampleResponse, StreamChunk,
)

pytestmark = pytest.mark.streaming


def settings(**overrides):
    base = dict(
        scenario=Scenario.SERVER, server_target_qps=100.0,
        server_latency_bound=0.5, min_query_count=1, min_duration=0.0,
    )
    base.update(overrides)
    return TestSettings(**base)


def add_streamed(log, qid, issue, first, last, tokens, chunks=2):
    """One clean streamed completion with the given token timing."""
    query = Query(
        id=qid, samples=(QuerySample(id=qid * 10, index=0),),
        issue_time=issue)
    log.record_issue(query, issue, scheduled_time=issue)
    per_chunk = tokens // chunks
    remainder = tokens - per_chunk * (chunks - 1)
    span = last - first
    for i in range(chunks):
        time = first if chunks == 1 else first + span * i / (chunks - 1)
        count = remainder if i == chunks - 1 else per_chunk
        log.record_chunk(
            query, time,
            StreamChunk(qid, i, count, last=(i == chunks - 1)))
    log.observe_completion(
        query, last + 0.0005,
        [QuerySampleResponse(qid * 10, 0)], keep_responses=False)
    return query


def add_atomic(log, qid, issue, done):
    query = Query(
        id=qid, samples=(QuerySample(id=qid * 10, index=0),),
        issue_time=issue)
    log.record_issue(query, issue, scheduled_time=issue)
    log.observe_completion(
        query, done, [QuerySampleResponse(qid * 10, 0)],
        keep_responses=False)
    return query


def test_effective_ttft_falls_back_to_full_latency():
    log = QueryLog()
    add_atomic(log, 1, issue=0.0, done=0.040)
    record = log.record_for(1)
    assert record.ttft is None
    done = Completions.of([record])
    assert effective_ttfts(done) == [pytest.approx(0.040)]
    assert effective_tpots(done) == [0.0]


def test_slo_check_applies_both_targets():
    log = QueryLog()
    # TTFT 10 ms, TPOT (30-10)/(8-1) ~ 2.9 ms over 8 tokens.
    add_streamed(log, 1, issue=0.0, first=0.010, last=0.030, tokens=8)
    records = Completions.of([log.record_for(1)])
    # (TTFT violations, TPOT violations, compliant) over the one record.
    ok = settings(ttft_target_ns=20_000_000, tpot_target_ns=5_000_000)
    assert stream_slo_counts(records, ok) == (0, 0, 1)
    tight_ttft = settings(ttft_target_ns=5_000_000)
    assert stream_slo_counts(records, tight_ttft) == (1, 0, 0)
    tight_tpot = settings(tpot_target_ns=1_000_000)
    assert stream_slo_counts(records, tight_tpot) == (0, 1, 0)
    # No targets configured: everything complies.
    assert stream_slo_counts(records, settings()) == (0, 0, 1)


def test_metrics_are_none_when_nothing_streamed():
    log = QueryLog()
    add_atomic(log, 1, issue=0.0, done=0.010)
    assert stream_metrics_of(log.completed(), settings()) is None


def test_percentiles_goodput_and_violation_counts():
    log = QueryLog()
    # Ten streamed queries with TTFTs 1..10 ms, identical 1 ms TPOT
    # (9 ms first-to-last over 10 tokens), one per 10 ms of run time.
    for i in range(10):
        issue = i * 0.010
        first = issue + (i + 1) * 0.001
        add_streamed(log, i + 1, issue, first, first + 0.009, tokens=10)
    target = settings(ttft_target_ns=5_000_000)  # 5 ms: TTFTs 6..10 miss
    metrics = stream_metrics_of(log.completed(), target)
    assert metrics.streamed_query_count == 10
    assert metrics.token_count == 100
    assert metrics.ttft_p50 == pytest.approx(0.0055, rel=0.1)
    assert metrics.ttft_p99 == pytest.approx(0.010, rel=0.02)
    assert metrics.tpot_p50 == pytest.approx(0.001)
    assert metrics.ttft_violations == 5
    assert metrics.tpot_violations == 0
    assert metrics.slo_compliant_count == 5
    # Goodput counts only the 5 compliant queries over the run window.
    duration = max(r.completion_time for r in log.completed_records()) \
        - min(r.issue_time for r in log.completed_records())
    assert metrics.goodput == pytest.approx(5 / duration)


def test_mixed_population_judges_compliance_over_all_completions():
    log = QueryLog()
    add_streamed(log, 1, issue=0.0, first=0.002, last=0.010, tokens=8)
    # The atomic query's effective TTFT is its 80 ms latency - a miss.
    add_atomic(log, 2, issue=0.0, done=0.080)
    metrics = stream_metrics_of(
        log.completed(), settings(ttft_target_ns=50_000_000))
    assert metrics.streamed_query_count == 1     # percentiles: streamed only
    assert metrics.ttft_violations == 1          # compliance: all completions
    assert metrics.slo_compliant_count == 1


def test_restarts_are_counted_but_not_penalized():
    log = QueryLog()
    query = add_streamed(log, 1, issue=0.0, first=0.002, last=0.010,
                         tokens=8)
    log2 = QueryLog()
    q = Query(id=1, samples=(QuerySample(id=10, index=0),), issue_time=0.0)
    log2.record_issue(q, 0.0)
    log2.record_chunk(q, 0.001, StreamChunk(1, 0))
    log2.record_chunk(q, 0.002, StreamChunk(1, 0))   # restart
    log2.record_chunk(q, 0.003, StreamChunk(1, 1, last=True))
    log2.observe_completion(
        q, 0.004, [QuerySampleResponse(10, 0)], keep_responses=False)
    metrics = stream_metrics_of(log2.completed(), settings())
    assert metrics.restart_count == 1
    assert log2.anomaly_count == 0


def test_effective_values_agree_with_the_record_properties():
    """``core.metrics`` computes TTFT/TPOT from a log's columns without
    going through ``QueryRecord.ttft`` / ``.tpot``; the two spellings of
    the formulas must not drift apart."""
    log = QueryLog()
    add_streamed(log, 1, issue=0.0, first=0.010, last=0.030, tokens=8)
    add_streamed(log, 2, issue=0.1, first=0.105, last=0.105, tokens=1,
                 chunks=1)
    add_atomic(log, 3, issue=0.2, done=0.240)
    records = log.completed_records()
    assert effective_ttfts(log.completed()) == [
        record.latency if record.ttft is None else record.ttft
        for record in records]
    assert effective_tpots(log.completed()) == [
        record.tpot or 0.0 for record in records]
    assert effective_tpots(Completions.of([log.record_for(1)])) == [
        pytest.approx(0.020 / 7)]
