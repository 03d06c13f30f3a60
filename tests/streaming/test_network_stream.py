"""Chunk hygiene behind ``InferenceServer``: the client's chunk screen
(the attempt engine) over real sockets.

The satellite case from the ISSUE: duplicate and out-of-order chunk
delivery from a misbehaving streaming backend must be absorbed by
``NetworkSUT``'s filter (dropped and counted, never surfaced to the
referee), and a rerouted stream - the server FAILs the first attempt
after chunks already flowed - must restart cleanly at seq 0 with no
double-counting.
"""

import threading

import pytest

from repro.core.events import WallClock
from repro.core.config import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.core.query import QuerySampleResponse, StreamChunk
from repro.core.sut import SutBase
from repro.harness.netbench import SyntheticQSL
from repro.network.client import NetworkSUT
from repro.network.server import InferenceServer, ServerConfig
from repro.streaming import StreamModel, streaming_echo

pytestmark = [pytest.mark.socket, pytest.mark.streaming]

MODEL = StreamModel(
    first_token_delay=0.001, inter_token_delay=0.0002,
    min_tokens=4, max_tokens=6, seed=13)


def quick_settings(**overrides):
    defaults = dict(
        scenario=Scenario.SERVER,
        server_target_qps=100.0,
        server_latency_bound=0.5,
        min_query_count=30,
        min_duration=0.0,
        watchdog_timeout=20.0,
        ttft_target_ns=200_000_000,
        tpot_target_ns=50_000_000,
    )
    defaults.update(overrides)
    return TestSettings(**defaults)


def plan_key(query):
    """A per-query plan seed visible identically on both sides of the
    wire: the server remaps query ids AND sample ids per attempt, but
    the data-set *index* crosses untouched."""
    return query.samples[0].index


def single_request_config():
    # max_batch=1 guarantees every batch is a single request, the shape
    # the server can attribute chunks to (merged batches drop them).
    return ServerConfig(port=0, max_batch=1, workers=2)


def network_run(backend_factory, settings=None, **sut_kwargs):
    server = InferenceServer(backend_factory, single_request_config())
    server.start()
    sut_kwargs.setdefault("query_timeout", 5.0)
    sut = NetworkSUT(server.address, **sut_kwargs)
    try:
        result = run_benchmark(
            sut, SyntheticQSL(total=128, performance=32),
            settings if settings is not None else quick_settings(),
            clock=WallClock())
    finally:
        sut.close()
        server.stop()
    return sut, server, result


class NoisyStreamer(SutBase):
    """Streams the plan correctly but sprays extras: a mid-stream
    duplicate, an out-of-order jump, and a chunk after the final.

    A seq-0 re-send is deliberately NOT among the extras - the filter
    treats it as a legitimate stream restart, not a flaw.
    """

    def __init__(self):
        super().__init__("noisy-streamer")

    def issue_query(self, query):
        plan = MODEL.plan(plan_key(query))
        events = []
        for seq, event in enumerate(plan.chunks):
            events.append(
                StreamChunk(query.id, seq, event.token_count,
                            last=event.last))
            if seq == 1:
                # Duplicate re-send of seq 1, then a jump ahead.
                events.append(StreamChunk(query.id, 1, 1))
                events.append(StreamChunk(query.id, 99, 1))
        events.append(StreamChunk(query.id, 100, 1))  # after the final
        for i, chunk in enumerate(events):
            self.loop.schedule_after(
                0.0002 * (i + 1),
                lambda c=chunk: self.emit_chunk(query, c))
        responses = [
            QuerySampleResponse(s.id, s.index) for s in query.samples
        ]
        self.loop.schedule_after(
            0.0002 * (len(events) + 2),
            lambda: self.complete(query, responses))


class FlakyFirstAttemptStreamer(SutBase):
    """Streams chunks, then FAILs each query's first attempt - the
    client must retry and the restarted stream must screen clean.

    The server assigns a fresh internal query id per attempt, so both
    the attempt counter and the stream plan key off the sample ids,
    which are stable across retries of the same logical query.
    """

    _attempts = {}
    _lock = threading.Lock()

    def __init__(self):
        super().__init__("flaky-first-attempt")

    def issue_query(self, query):
        key = plan_key(query)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        plan = MODEL.plan(key)
        for seq, event in enumerate(plan.chunks):
            self.loop.schedule_after(
                event.offset,
                lambda s=seq, e=event: self.emit_chunk(
                    query,
                    StreamChunk(query.id, s, e.token_count, last=e.last)))
        if attempt == 0:
            self.loop.schedule_after(
                plan.chunks[-1].offset + 0.0005,
                lambda: self.fail(query, "injected first-attempt loss"))
        else:
            responses = [
                QuerySampleResponse(s.id, s.index) for s in query.samples
            ]
            self.loop.schedule_after(
                plan.chunks[-1].offset + 0.0005,
                lambda: self.complete(query, responses))


def test_streaming_backend_over_real_sockets_is_valid():
    sut, server, result = network_run(
        lambda: streaming_echo(latency=0.001, model=MODEL))
    assert result.valid, result.validity.reasons
    assert sut.stats.chunks_received > 0
    assert server.stats.chunks == sut.stats.chunks_received
    assert not result.log.stream_chunk_anomalies
    assert not result.log.truncated_streams
    for record in result.log.completed_records():
        assert record.stream_closed
        assert MODEL.min_tokens <= record.token_count <= MODEL.max_tokens


def test_duplicate_and_out_of_order_chunks_are_filtered():
    sut, server, result = network_run(NoisyStreamer)
    # The filter absorbed every extra: three per query, none reached
    # the referee, and the run's verdict is untouched.
    assert sut.stats.filtered_chunks >= 3 * result.metrics.query_count
    assert result.valid, result.validity.reasons
    assert not result.log.stream_chunk_anomalies
    for record in result.log.completed_records():
        plan = MODEL.plan(plan_key(record.query))
        assert record.chunk_count == len(plan.chunks)
        assert record.stream_closed


def test_rerouted_stream_restarts_cleanly():
    FlakyFirstAttemptStreamer._attempts = {}
    sut, server, result = network_run(
        FlakyFirstAttemptStreamer, max_attempts=3, query_timeout=5.0)
    assert result.valid, result.validity.reasons
    assert sut.stats.retries > 0
    assert not result.log.stream_chunk_anomalies
    assert not result.log.truncated_streams
    # Retried queries restarted their streams; chunk counts match one
    # clean pass of the plan - the dead attempt was not double-counted.
    restarted = [r for r in result.log.completed_records()
                 if r.stream_restarts >= 1]
    assert restarted
    for record in result.log.completed_records():
        plan = MODEL.plan(plan_key(record.query))
        assert record.chunk_count == len(plan.chunks)
        assert record.token_count == plan.token_count
