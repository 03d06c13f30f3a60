"""Streams compose with the resilience stack: retries, failover, fleets.

The guarantee under test is the ISSUE's composition clause: a retried,
rerouted, or hedged stream restarts cleanly at seq 0, the referee logs a
*restart* rather than an anomaly, and dead-attempt chunks are never
double-counted.
"""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.core.query import QuerySampleResponse, StreamChunk
from repro.core.sut import SutBase
from repro.durability import SelfHealingSUT
from repro.faults import ResilientSUT, RetryPolicy
from repro.fleet import ReplicaSet
from repro.streaming import StreamModel, StreamingSUT, streaming_echo

from tests.conftest import EchoQSL

pytestmark = pytest.mark.streaming

MODEL = StreamModel(
    first_token_delay=0.001, inter_token_delay=0.0005,
    min_tokens=4, max_tokens=6, seed=11)


def settings(queries=30, **overrides):
    base = dict(
        scenario=Scenario.SERVER, server_target_qps=50.0,
        server_latency_bound=1.0, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=120.0,
        ttft_target_ns=200_000_000, tpot_target_ns=50_000_000,
    )
    base.update(overrides)
    return TestSettings(**base)


class FlakyStreamer(SutBase):
    """Streams every attempt's chunks, but swallows the completion on
    each query's first attempt - the stream goes quiet after the final
    chunk and the wrapper's deadline must fire."""

    def __init__(self, model=MODEL, latency=0.001):
        super().__init__("flaky-streamer")
        self.model = model
        self.latency = latency
        self.attempts = {}

    def issue_query(self, query):
        attempt = self.attempts.get(query.id, 0)
        self.attempts[query.id] = attempt + 1
        plan = self.model.plan(query.id)
        for seq, event in enumerate(plan.chunks):
            self.loop.schedule_after(
                event.offset,
                lambda s=seq, e=event: self.emit_chunk(
                    query,
                    StreamChunk(query.id, s, e.token_count, last=e.last)))
        if attempt > 0:
            responses = [
                QuerySampleResponse(s.id, s.index) for s in query.samples
            ]
            self.loop.schedule_after(
                plan.chunks[-1].offset + self.latency,
                lambda: self.complete(query, responses))


def assert_clean_streams(result, model=MODEL):
    assert result.valid, result.validity.reasons
    log = result.log
    assert not log.stream_chunk_anomalies
    assert not log.truncated_streams
    for record in log.completed_records():
        plan = model.plan(record.query.id)
        assert record.chunk_count == len(plan.chunks)
        assert record.token_count == plan.token_count
        assert record.stream_closed


def test_resilient_retry_restarts_the_stream():
    sut = ResilientSUT(
        FlakyStreamer(),
        policy=RetryPolicy(
            max_attempts=3, attempt_timeout=0.010,
            backoff_base=0.002, jitter="none"),
    )
    result = run_benchmark(sut, EchoQSL(), settings())
    assert_clean_streams(result)
    # Every query needed its second attempt...
    assert sut.stats.retries == result.metrics.query_count
    # ...and the referee saw each as exactly one restart, not misbehavior.
    for record in result.log.completed_records():
        assert record.stream_restarts == 1
    assert result.metrics.stream.restart_count == result.metrics.query_count


class FlawedStreamer(SutBase):
    """Streams the full plan, then answers with a malformed (empty)
    response set - the healing layer fails over on the flaw."""

    def __init__(self, model=MODEL, latency=0.001):
        super().__init__("flawed-streamer")
        self.model = model
        self.latency = latency

    def issue_query(self, query):
        plan = self.model.plan(query.id)
        for seq, event in enumerate(plan.chunks):
            self.loop.schedule_after(
                event.offset,
                lambda s=seq, e=event: self.emit_chunk(
                    query,
                    StreamChunk(query.id, s, e.token_count, last=e.last)))
        self.loop.schedule_after(
            plan.chunks[-1].offset + self.latency,
            lambda: self.complete(query, []))


def test_healing_failover_restarts_the_stream():
    primary = FlawedStreamer()
    standby = streaming_echo(latency=0.001, model=MODEL)
    sut = SelfHealingSUT(primary, standby, attempt_timeout=0.050)
    result = run_benchmark(sut, EchoQSL(), settings())
    assert_clean_streams(result)
    assert sut.stats.failovers > 0
    # Each failed-over query restarted its stream on the standby - a
    # restart, not misbehavior.  (Once the breaker opens, later queries
    # route straight to the standby and stream cleanly first try.)
    restarted = sum(1 for r in result.log.completed_records()
                    if r.stream_restarts >= 1)
    assert restarted >= sut.stats.failovers


def test_healing_passthrough_forwards_chunks_untouched():
    sut = SelfHealingSUT(streaming_echo(latency=0.001, model=MODEL))
    result = run_benchmark(sut, EchoQSL(), settings())
    assert_clean_streams(result)
    assert result.metrics.stream.restart_count == 0


def test_replicaset_forwards_streams_per_replica():
    sut = ReplicaSet(
        lambda i: streaming_echo(latency=0.001, model=MODEL),
        initial_replicas=3)
    result = run_benchmark(sut, EchoQSL(), settings())
    assert_clean_streams(result)
    assert result.metrics.stream.restart_count == 0


def test_replicaset_reroute_restarts_the_stream():
    # Replica 0 is flaky (streams but never completes first attempts);
    # the reroute lands queries on a healthy replica whose fresh stream
    # must restart at seq 0.
    def factory(i):
        if i == 0:
            return FlakyStreamer()
        return streaming_echo(latency=0.001, model=MODEL)

    sut = ReplicaSet(factory, initial_replicas=2, attempt_timeout=0.010)
    result = run_benchmark(sut, EchoQSL(), settings())
    assert_clean_streams(result)
    assert sut.stats.reroutes > 0
    assert any(r.stream_restarts > 0
               for r in result.log.completed_records())
