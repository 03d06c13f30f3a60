"""SimulatedChannelSUT: deterministic virtual-time network effects."""

import pytest

from repro.core.config import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.faults.resilient import ResilientSUT, RetryPolicy
from repro.harness.netbench import SyntheticQSL
from repro.harness.stack import EchoBackend, StackSpec, build
from repro.network.simulated import (
    ChannelModel,
    SimulatedChannelSUT,
)
from repro.sut.echo import EchoSUT


def server_settings(**overrides):
    defaults = dict(
        scenario=Scenario.SERVER,
        server_target_qps=200.0,
        server_latency_bound=0.1,
        min_query_count=60,
        min_duration=0.0,
        watchdog_timeout=60.0,
    )
    defaults.update(overrides)
    return TestSettings(**defaults)


def run_channel(model, settings=None, latency=0.002):
    """One run of an echo backend behind ``model``'s wire, built from
    its spec: the verdict and the channel it ran over."""
    stack = build(StackSpec(EchoBackend(latency), channel=model), model.seed)
    result = run_benchmark(stack.sut, SyntheticQSL(),
                           settings or server_settings())
    return result, stack.channel


class TestModelValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ChannelModel(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChannelModel(latency=-1)


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        model = ChannelModel(latency=0.003, jitter=0.001, drop_rate=0.0,
                             seed=11)
        a, a_channel = run_channel(model)
        b, b_channel = run_channel(model)
        log_a = [(r.query.id, r.issue_time, r.completion_time)
                 for r in a.log.completed_records()]
        log_b = [(r.query.id, r.issue_time, r.completion_time)
                 for r in b.log.completed_records()]
        assert log_a == log_b
        assert a_channel.stats == b_channel.stats

    def test_channel_does_not_perturb_the_arrival_draw(self):
        """The traffic pattern (which samples, when scheduled) must be
        identical with and without the channel - the channel only delays
        delivery, it does not consume the scenario's RNG stream."""
        settings = server_settings()
        qsl = SyntheticQSL()
        direct = run_benchmark(EchoSUT(latency=0.002), qsl, settings)
        channel, _ = run_channel(ChannelModel(latency=0.001, seed=3),
                                 settings)
        direct_seq = [r.query.sample_indices
                      for r in direct.log.completed_records()]
        channel_seq = [r.query.sample_indices
                       for r in channel.log.completed_records()]
        assert direct_seq == channel_seq


class TestChannelEffects:
    def test_latency_shifts_the_distribution(self):
        fast, _ = run_channel(ChannelModel(latency=0.0005, seed=5))
        slow, _ = run_channel(ChannelModel(latency=0.010, seed=5))
        assert fast.valid
        delta = slow.metrics.latency_mean - fast.metrics.latency_mean
        # Two extra one-way hops of (10 - 0.5) ms each.
        assert delta == pytest.approx(2 * 0.0095, rel=0.05)

    def test_qos_degrades_to_invalid_as_latency_grows(self):
        settings = server_settings(server_latency_bound=0.015)
        good, _ = run_channel(ChannelModel(latency=0.001, seed=5), settings)
        bad, _ = run_channel(ChannelModel(latency=0.030, seed=5), settings)
        assert good.valid
        assert not bad.valid

    def test_reordering_is_counted(self):
        _, channel = run_channel(
            ChannelModel(latency=0.001, reorder_rate=0.5, seed=5))
        assert channel.stats.reordered_frames > 0

    def test_transport_records_cover_completed_queries(self):
        result, channel = run_channel(ChannelModel(latency=0.002, seed=5))
        completed = result.log.completed_records()
        transport = channel.transport_records
        assert len(transport) >= len(completed)
        for record in completed:
            timing = transport[record.query.id]
            # One-way latency each direction bounds the wire share.
            assert timing.round_trip >= 2 * 0.002 - 1e-9
            assert timing.server_time >= 0

    def test_offline_scenario_flush_does_not_overtake_the_wire(self):
        settings = TestSettings(
            scenario=Scenario.OFFLINE,
            offline_sample_count=512,
            min_duration=0.0,
            watchdog_timeout=120.0,
        )
        result, _ = run_channel(ChannelModel(latency=0.005, seed=5), settings)
        assert result.valid, result.validity.reasons


class TestLossAndRecovery:
    def test_drops_are_silent_and_counted(self):
        result, channel = run_channel(
            ChannelModel(latency=0.001, drop_rate=0.2, seed=5))
        stats = channel.stats
        assert stats.queries_dropped + stats.completions_dropped > 0
        # Dropped queries never resolve; the watchdog ends the run and
        # the verdict is INVALID - but it is a verdict, not a hang.
        assert not result.valid

    def test_resilient_wrapper_recovers_dropped_frames(self):
        """Channel loss + the retry wrapper = the submitter-side recovery
        story, all in virtual time."""
        channel = SimulatedChannelSUT(
            EchoSUT(latency=0.002),
            ChannelModel(latency=0.001, drop_rate=0.1, seed=5))
        sut = ResilientSUT(channel, RetryPolicy(
            max_attempts=6, attempt_timeout=0.02))
        result = run_benchmark(sut, SyntheticQSL(), server_settings())
        assert result.valid, result.validity.reasons
        assert sut.stats.retries > 0
        assert sut.stats.recovered_queries > 0


class TestFrameSizesAreTheWireEncodings:
    """The channel counts the bytes of the real frame, so its byte totals
    are a contract on the codec: pinned from the recursive encoder, they
    must survive any rewrite of it."""

    @staticmethod
    def run(backend):
        channel = SimulatedChannelSUT(backend, ChannelModel(
            latency=0.001, seed=5))
        result = run_benchmark(channel, SyntheticQSL(), server_settings())
        assert result.valid, result.validity.reasons
        return channel.stats

    def test_plain_answers(self):
        stats = self.run(EchoSUT(latency=0.002))
        assert (stats.bytes_forward, stats.bytes_reverse) == (4500, 7620)

    def test_streamed_answers(self):
        from repro.streaming import StreamModel, StreamingSUT

        stats = self.run(StreamingSUT(
            EchoSUT(latency=0.002), model=StreamModel(
                first_token_delay=1e-3, inter_token_delay=1e-4, seed=0)))
        assert stats.chunks_forwarded == 1313
        assert (stats.bytes_forward, stats.bytes_reverse) == (4500, 128416)


class TestAnUnencodableQuery:
    """A query the wire cannot carry fails before the wire, as the real
    client fails it: nothing forwarded, counted or drawn."""

    def test_it_fails_alone_and_leaves_the_channel_as_it_was(self):
        from repro.core.events import EventLoop
        from repro.core.query import Query, QueryFailure, QuerySample

        def deliveries(first):
            loop = EventLoop()
            channel = SimulatedChannelSUT(EchoSUT(latency=0.002), ChannelModel(
                latency=0.001, jitter=0.001, drop_rate=0.2, seed=3))
            heard = []
            channel.start_run(loop, lambda query, outcome: heard.append(
                (query.id, loop.now, outcome)))
            for query in first:
                channel.issue_query(query)
            for qid in range(10, 20):
                channel.issue_query(
                    Query(id=qid, samples=(QuerySample(id=qid, index=1),)))
            loop.run()
            return channel.stats, heard

        refused = Query(id=1, samples=(QuerySample(id=1, index=2 ** 64),))
        stats, heard = deliveries([refused])
        clean_stats, clean_heard = deliveries([])
        (qid, when, outcome), *rest = heard
        assert (qid, when) == (1, 0.0)
        assert isinstance(outcome, QueryFailure)
        assert "wire-encodable" in outcome.reason
        assert rest == clean_heard and stats == clean_stats
