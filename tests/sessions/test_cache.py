"""PrefixCacheSUT accounting: hits, evictions, audit, latency shaping."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.loadgen import run_benchmark
from repro.core.query import (
    Query, QuerySample, QuerySampleResponse, SessionTurn,
)
from repro.core.sut import SutBase
from repro.durability import run_fingerprint
from repro.metrics import MetricsRegistry
from repro.sessions import (
    CacheStats,
    PrefixCacheSUT,
    audit_cache_events,
    replay_graph_from_settings,
)
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL

pytestmark = pytest.mark.sessions


def settings(**overrides):
    base = dict(
        scenario=Scenario.SESSION, server_target_qps=100.0,
        session_count=24, session_think_time_mean=0.05,
        min_duration=0.0, watchdog_timeout=600.0, seed=5)
    base.update(overrides)
    return TestSettings(**base)


def cached_run(run_settings=None, registry=None, **cache_kwargs):
    cache_kwargs.setdefault("capacity_tokens", 1 << 20)
    sut = PrefixCacheSUT(EchoSUT(latency=0.001), registry=registry,
                         **cache_kwargs)
    result = run_benchmark(
        sut, EchoQSL(),
        run_settings if run_settings is not None else settings())
    return result, sut


def test_unbounded_cache_hits_every_followup_turn():
    result, sut = cached_run()
    assert result.valid
    # First turn of each session has no prefix (a miss); every later
    # turn's prefix is exactly the conversation so far, still resident.
    assert sut.stats.misses == 24
    assert sut.stats.hits == result.metrics.query_count - 24
    assert sut.stats.partial_hits == 0
    assert sut.stats.evictions == 0
    assert sut.stats.token_hit_rate == 1.0


def test_tiny_cache_evicts_and_re_prefills():
    result, sut = cached_run(capacity_tokens=512)
    assert result.valid
    assert sut.stats.evictions > 0
    assert sut.stats.tokens_missed > 0
    assert sut.stats.hit_rate < 1.0


def test_audit_accepts_the_real_trail_and_rejects_a_doctored_one():
    run_settings = settings()
    _result, sut = cached_run(run_settings)
    graph = replay_graph_from_settings(run_settings)
    assert audit_cache_events(sut.events, graph, sut.capacity_tokens) == []
    # Inflate one hit's reused tokens: the referee must notice.
    doctored = list(sut.events)
    for position, event in enumerate(doctored):
        if event.kind == "hit":
            doctored[position] = event._replace(tokens=event.tokens + 1)
            break
    problems = audit_cache_events(doctored, graph, sut.capacity_tokens)
    assert problems and "recorded" in problems[0]


def test_cache_misses_cost_more_latency_than_hits():
    # Same workload, one run with a cache large enough to always hit
    # after turn one, one with a cache too small to ever help: the
    # cold-cache run must be slower end to end.
    warm, _ = cached_run(settings(), capacity_tokens=1 << 20)
    cold, cold_sut = cached_run(settings(), capacity_tokens=1)
    assert cold_sut.stats.hits == 0
    assert cold.metrics.session.session_latency_mean > \
        warm.metrics.session.session_latency_mean


def test_prefix_cache_metric_families():
    registry = MetricsRegistry()
    result, sut = cached_run(registry=registry)
    assert result.valid
    assert registry.get("prefix_cache_hits_total").value == sut.stats.hits
    assert registry.get("prefix_cache_misses_total").value == \
        sut.stats.misses
    assert registry.get("prefix_cache_tokens_reused_total").value == \
        sut.stats.tokens_reused
    assert registry.get("prefix_cache_evictions_total").value == 0
    assert registry.get("prefix_cache_resident_tokens").value == \
        sut.model.resident_tokens


def test_non_session_queries_bypass_the_cache():
    sut = PrefixCacheSUT(EchoSUT(latency=0.001))
    server_settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=500.0,
        server_latency_bound=0.5, min_query_count=50,
        min_duration=0.0, watchdog_timeout=60.0)
    result = run_benchmark(sut, EchoQSL(), server_settings)
    assert result.valid
    assert sut.stats.accesses == 0
    assert sut.events == []


def test_streamed_session_turns_report_per_turn_ttft():
    from repro.streaming import StreamModel, StreamingSUT

    sut = PrefixCacheSUT(
        StreamingSUT(EchoSUT(latency=0.001), model=StreamModel(seed=7)),
        capacity_tokens=1 << 20)
    result = run_benchmark(sut, EchoQSL(), settings())
    assert result.valid
    stream = result.metrics.stream
    assert stream is not None
    assert stream.streamed_query_count == result.metrics.query_count
    session = result.metrics.session
    # Per-turn TTFT comes from real first-chunk times, so it must sit
    # strictly below the full turn latency percentiles.
    assert session.turn_ttft_p50 < result.metrics.latency_p50


class _RecordingSUT(SutBase):
    """Inner backend that logs the order of issues vs. flushes."""

    def __init__(self):
        super().__init__("recorder")
        self.calls = []

    def issue_query(self, query):
        self.calls.append("issue")
        self.complete(query, [QuerySampleResponse(s.id, s.index)
                              for s in query.samples])

    def flush(self):
        self.calls.append("flush")


def delayed_turn(qid=1):
    query = Query(id=qid, samples=(QuerySample(qid * 100, 0),),
                  issue_time=0.0)
    query.session = SessionTurn(
        session_id=1, turn_index=1, turn_count=4,
        prefix_tokens=128, new_tokens=16, response_tokens=16)
    return query


def test_flush_waits_for_prefill_delayed_turns_to_drain():
    # Regression: flush() used to forward to the inner SUT immediately,
    # overtaking turns still sitting out their prefill delay on the
    # loop - the inner SUT would batch-close before seeing queries that
    # were already, logically, issued.
    inner = _RecordingSUT()
    sut = PrefixCacheSUT(inner, capacity_tokens=1 << 20)
    loop = EventLoop(VirtualClock())
    sut.start_run(loop, lambda q, r: None)
    sut.issue_query(delayed_turn(1))
    sut.issue_query(delayed_turn(2))
    sut.flush()
    assert inner.calls == []  # both turns still waiting out prefill
    loop.run()
    assert inner.calls == ["issue", "issue", "flush"]


def test_flush_forwards_immediately_when_nothing_is_pending():
    inner = _RecordingSUT()
    sut = PrefixCacheSUT(inner)
    loop = EventLoop(VirtualClock())
    sut.start_run(loop, lambda q, r: None)
    sut.flush()
    assert inner.calls == ["flush"]


def test_close_releases_the_inner_backend():
    class _Closable(EchoSUT):
        def __init__(self):
            super().__init__()
            self.closed = False

        def close(self):
            self.closed = True

    inner = _Closable()
    PrefixCacheSUT(inner).close()
    assert inner.closed


def test_merged_stats_sum_every_field():
    a = CacheStats(hits=1, partial_hits=2, misses=3, evictions=4,
                   tokens_reused=5, tokens_missed=6)
    b = CacheStats(hits=10, partial_hits=20, misses=30, evictions=40,
                   tokens_reused=50, tokens_missed=60)
    assert CacheStats.merged([a, b]) == CacheStats(
        hits=11, partial_hits=22, misses=33, evictions=44,
        tokens_reused=55, tokens_missed=66)
    assert CacheStats.merged([]) == CacheStats()


def test_replica_labeled_cache_exports_its_own_series():
    registry = MetricsRegistry()
    sut = PrefixCacheSUT(EchoSUT(latency=0.001), registry=registry,
                         replica=3)
    result = run_benchmark(sut, EchoQSL(), settings())
    assert result.valid
    hits = registry.get("prefix_cache_hits_total")
    assert hits.label_names == ("replica",)
    assert hits.labels(replica=3).value == sut.stats.hits
    resident = registry.get("prefix_cache_resident_tokens")
    assert resident.labels(replica=3).value == sut.model.resident_tokens


def test_a_reused_cache_starts_each_run_afresh():
    # The 16-session, seed-3 run: (hits, misses, events) is (46, 31, 104)
    # for a fresh cache, and a second run on the same instance must not
    # add to it, in the stats, the trail, the exported views or the run.
    run_settings = settings(session_count=16, seed=3)
    registry = MetricsRegistry()
    reused = PrefixCacheSUT(EchoSUT(latency=0.002), capacity_tokens=4096,
                            registry=registry)
    first = run_benchmark(reused, EchoQSL(), run_settings)
    assert (reused.stats.hits, reused.stats.misses, len(reused.events)) \
        == (46, 31, 104)
    second = run_benchmark(reused, EchoQSL(), run_settings)
    fresh = PrefixCacheSUT(EchoSUT(latency=0.002), capacity_tokens=4096)
    baseline = run_benchmark(fresh, EchoQSL(), run_settings)
    assert reused.stats == fresh.stats
    assert reused.events == fresh.events
    assert run_fingerprint(second) == run_fingerprint(baseline) \
        == run_fingerprint(first)
    assert registry.get("prefix_cache_hits_total").value == 46
    assert registry.get("prefix_cache_resident_tokens").value == \
        fresh.model.resident_tokens
