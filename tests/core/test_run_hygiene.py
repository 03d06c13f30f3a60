"""What a run leaves behind: a heap that does not hoard cancelled
deadlines while it runs, and no cyclic garbage once it has finished."""

import gc
import weakref

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.query import QueryRecord
from repro.faults import ResilientSUT, RetryPolicy
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT


def server_settings(queries, qps=1000.0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=10.0, min_query_count=queries,
        min_duration=0.0, seed=2)


class HeapProbe:
    """A RunService sampling the loop's heap once per virtual millisecond."""

    def __init__(self):
        self.samples = []

    def start(self, loop, keep_going):
        def tick():
            self.samples.append((len(loop._heap), loop.pending()))
            if keep_going():
                loop.schedule_after(0.001, tick)

        loop.schedule_after(0.001, tick)

    def stop(self):
        pass


def test_rearmed_deadlines_do_not_pile_up_in_the_heap(echo_qsl):
    """Every chunk cancels the attempt's 30 s deadline and arms a new
    one; the dead ones would otherwise sit in the heap for 30 s of run
    time - ~20 per query - and every push and pop would pay for them."""
    sut = ResilientSUT(
        StreamingSUT(EchoSUT(latency=0.0005), StreamModel(seed=2)),
        policy=RetryPolicy(attempt_timeout=30.0))
    probe = HeapProbe()
    result = run_benchmark(sut, echo_qsl, server_settings(600),
                           services=[probe])
    assert result.valid
    rearmed = result.log.stream_chunks
    assert rearmed > 10_000
    assert len(probe.samples) > 500
    for heap, live in probe.samples:
        assert heap <= 2 * live + 128
    # Left alone, the heap would end the run holding all of them.
    assert max(heap for heap, _ in probe.samples) < rearmed / 10


def test_a_finished_run_is_freed_without_the_collector(echo_qsl):
    """driver -> sut -> sut._responder -> driver used to make every run's
    log cyclic garbage, freed only by a gen-2 collection."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # unreachable objects land in gc.garbage
    try:
        sut = EchoSUT(latency=0.0005)
        result = run_benchmark(sut, echo_qsl, server_settings(300))
        assert result.valid and result.log.query_count >= 300
        del result, sut
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, QueryRecord)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def test_a_kept_wrapper_stack_does_not_pin_the_finished_run(echo_qsl):
    """StreamingSUT <-> inner is a cycle of its own and holds the driver
    (its responder); the driver must not hold the log once the run is
    over, or every run's records wait for a gen-2 collection."""
    gc.collect()
    gc.disable()
    try:
        sut = StreamingSUT(EchoSUT(latency=0.0005), StreamModel(seed=2))
        result = run_benchmark(sut, echo_qsl, server_settings(300))
        assert result.valid and result.log.stream_chunks > 3_000
        log = weakref.ref(result.log)
        del result
        assert log() is None  # freed by reference counting, SUT still held
        assert sut.inner.queries_served >= 300
    finally:
        gc.enable()


class Recording:
    """A RunService that only notes what the run did to it."""

    def __init__(self):
        self.calls = []

    def start(self, loop, keep_going):
        self.calls.append("start")

    def stop(self):
        self.calls.append("stop")


def test_a_failing_service_start_still_stops_the_ones_before_it(echo_qsl):
    """An orchestrator that was never ``bind()``-ed refuses to start;
    the service started before it must not be left running."""
    import pytest

    from repro.faults import ChaosOrchestrator, ChaosSchedule

    first = Recording()
    unbound = ChaosOrchestrator(ChaosSchedule(events=()))
    with pytest.raises(ValueError, match="bind"):
        run_benchmark(EchoSUT(latency=0.0005), echo_qsl,
                      server_settings(10), services=[first, unbound])
    assert first.calls == ["start", "stop"]


def test_start_order_is_sampler_then_sut_then_services_as_given(echo_qsl):
    """Same-time events fire in scheduling order, so the start order is
    part of every same-seed digest; the sampler's baseline is taken
    before the SUT has touched the registry."""
    from repro.metrics import MetricsRegistry

    order = []

    class Noting(Recording):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def start(self, loop, keep_going):
            order.append(self.name)

    class NotingSUT(EchoSUT):
        def start_run(self, loop, responder):
            order.append("sut")
            super().start_run(loop, responder)

    registry = MetricsRegistry()
    registry.gauge("probe", "read at every snapshot",
                   fn=lambda: float(order.append("snapshot") or 0))
    result = run_benchmark(NotingSUT(latency=0.0005), echo_qsl,
                           server_settings(10), registry=registry,
                           snapshot_period=3600.0,
                           services=[Noting("a"), Noting("b")])
    assert result.valid
    assert order[:4] == ["snapshot", "sut", "a", "b"]
