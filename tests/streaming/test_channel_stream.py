"""Streams over the simulated channel: reordering, loss, reassembly.

The acceptance bar: a reordering transport must not change the verdict.
The channel holds a query's completion until its on-wire chunks land and
the client-side reassembler releases chunks in order, so the referee
sees the same clean streams it would see in-process.
"""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.durability import run_fingerprint
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.streaming import StreamModel, streaming_echo

from tests.conftest import EchoQSL

pytestmark = pytest.mark.streaming

MODEL = StreamModel(seed=7)


def settings(queries=60, **overrides):
    base = dict(
        scenario=Scenario.SERVER, server_target_qps=100.0,
        server_latency_bound=1.0, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=120.0,
        ttft_target_ns=200_000_000, tpot_target_ns=50_000_000,
    )
    base.update(overrides)
    return TestSettings(**base)


def channel_run(channel_model=None, run_settings=None):
    sut = streaming_echo(latency=0.001, model=MODEL)
    if channel_model is not None:
        sut = SimulatedChannelSUT(sut, channel_model)
    return sut, run_benchmark(
        sut, EchoQSL(),
        run_settings if run_settings is not None else settings())


def test_reordering_channel_preserves_the_verdict():
    _, direct = channel_run()
    channel, routed = channel_run(
        ChannelModel(latency=0.0, reorder_rate=0.5, seed=3))
    assert direct.valid and routed.valid
    assert direct.validity.reasons == routed.validity.reasons
    # The streams the referee saw are identical: same chunk/token
    # totals, no anomalies, nothing truncated.
    assert routed.log.stream_chunks == direct.log.stream_chunks
    assert routed.log.stream_tokens == direct.log.stream_tokens
    assert not routed.log.stream_chunk_anomalies
    assert not routed.log.truncated_streams
    assert channel.stats.chunks_forwarded > 0
    assert channel.stats.chunks_stranded == 0


def test_zero_effect_channel_is_bit_identical_to_direct():
    _, direct = channel_run()
    _, routed = channel_run(ChannelModel(latency=0.0, seed=3))
    assert run_fingerprint(direct) == run_fingerprint(routed)
    assert direct.summary() == routed.summary()


def test_dropped_chunks_truncate_streams_not_the_run():
    channel, result = channel_run(
        ChannelModel(latency=0.0, drop_rate=0.08, seed=3))
    assert channel.stats.chunks_dropped > 0
    # Losing a chunk leaves a gap the reassembler can never fill: the
    # completion still lands (it is retried at the transport level in
    # real systems; here the terminal frame survives or the run fails
    # loudly), and the referee classifies the stream as truncated.
    assert result.log.truncated_streams
    assert not result.valid
    assert any("truncated streams" in reason
               for reason in result.validity.reasons)


def test_held_completions_never_strand_the_run():
    # Heavy reordering: completions are held behind chunks still on the
    # wire; every query must still resolve.
    _, result = channel_run(
        ChannelModel(latency=0.0005, reorder_rate=0.7, seed=5))
    assert result.log.outstanding == 0
    assert result.valid, result.validity.reasons
