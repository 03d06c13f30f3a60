"""Tier-1 gate on the virtual-time hot path, in machine-independent units.

Python + C function calls per query (plain Server run) and per streamed
chunk, counted by ``cProfile`` whose timings are ignored.  For a given
seed the counts repeat exactly, so the ceilings sit ~10% above what the
code does today and a change that adds a frame per event trips them.
The wrappers that run the attempt engine are gated on what they *add*
over the bare run - in calls, in heap events (none per query) and in
heap size; so are the fault valve with nothing in force, a zoned
fleet's routing decision, and the telemetry (registry + 50 ms snapshot
sampler) on top of that fleet.  The
wire codec is gated without sockets: one ISSUE frame built, one COMPLETE
frame read, and what a simulated channel adds per query; the wire
client, over loopback, per query on the loop thread.  A breach
prints the ten most-called functions, so the regression names its
frame.  Re-baselining is described in CONTRIBUTING.md.
"""

import cProfile
import os

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import EventLoop, WallClock
from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.durability import SelfHealingSUT
from repro.faults import DegradedSUT, OutageSUT, ResilientSUT
from repro.fleet import ReplicaSet
from repro.metrics import MetricsRegistry
from repro.network import protocol
from repro.network.client import NetworkSUT
from repro.network.server import InferenceServer, ServerConfig
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.device import DeviceModel, ProcessorType
from repro.sut.echo import EchoSUT
from repro.sut.simulated import SimulatedSUT, WorkloadProfile

from tests.conftest import EchoQSL

#: Measured 27.39 calls/query and 6.31 calls/chunk (python 3.11.7; 7.49
#: per chunk with each chunk built by its Python-level constructor as it
#: fired; 9.41 per chunk with a heap entry per chunk instead of one train
#: per stream; 29.39 per query with a Python-level response constructor).
PLAIN_CALLS_PER_QUERY = 30.1
STREAM_CALLS_PER_CHUNK = 7.0

#: wrapper -> (build it over a backend factory, ceiling on calls/query
#: added over the bare echo, ceiling on calls/chunk added over the bare
#: streamed echo).  Measured 16.22 / 20.12 / 26.19 calls/query and
#: 5.82 / 5.01 / 5.32 calls/chunk (python 3.11.7); with a heap event, a
#: closure and a cancel per attempt they were 19.77 / 23.16 / 29.24 and
#: 6.00 / 5.16 / 5.47.
WRAPPER_BUDGETS = {
    "resilient": (lambda backend: ResilientSUT(backend()), 17.8, 6.4),
    "healing": (lambda backend: SelfHealingSUT(backend()), 22.1, 5.5),
    # Hedged, with no hedge ever taken: the hedge is an instant on the
    # attempt.  Measured 19.24 / 4.97 (python 3.11.7; unhedged healing
    # 19.12 / 4.96 beside it); with a loop event, a closure and a cancel
    # per query it was 24.88 / 5.21.
    "healing+hedge": (
        lambda backend: SelfHealingSUT(backend(), backend(),
                                       hedge_delay=0.05), 22.1, 5.5),
    "fleet-of-2": (
        lambda backend: ReplicaSet(lambda index: backend(),
                                   initial_replicas=2), 28.8, 5.8),
}

#: A zoned fleet (4 replicas, 2 zones, zone-spread): calls/query added
#: over the bare echo.  Measured 30.26 (python 3.11.7; 38.26 with the
#: per-zone queues, 41.31 with the per-attempt heap event).
ZONED_FLEET_CALLS_PER_QUERY = 33.2
#: Registry + 50 ms snapshot sampler on that fleet: calls/query added
#: over the same fleet without them - per query the latency observation
#: and ``lb_routed_total{replica}``, the rest is the captures reading
#: the ledgers.  Measured 6.72 (python 3.11.7; 8.72 with the log
#: estimate of the histogram bucket).
TELEMETRY_CALLS_PER_QUERY = 7.3

#: The one fault valve over the echo with nothing in force - healthy,
#: and with its fixed window still ahead (the run ends before 10 s):
#: calls/query and calls/chunk added over the bare runs, and no heap
#: event of its own.  Measured 3.02 / 3.15 both (python 3.11.7, the
#: whole file); the three valves it replaced measured 3.01 / 3.10
#: (healthy DegradedSUT), 9.01 / 5.41 (OutageSUT outside its window)
#: and 6.01 / 5.26 (BrownoutSUT).
VALVES = {
    "healthy": lambda backend: DegradedSUT(backend()),
    "window-ahead": lambda backend: OutageSUT(backend(), 10.0, 1.0),
}
VALVE_CALLS_PER_QUERY = 3.3
VALVE_CALLS_PER_CHUNK = 3.4

QUERIES = 500


SERVER = TestSettings(
    scenario=Scenario.SERVER, server_target_qps=1000.0,
    server_latency_bound=10.0, min_query_count=QUERIES,
    min_duration=0.0, seed=0)


def profiled_run(sut, qsl, settings=SERVER, **telemetry):
    # The first run in a process pays ~5,000 calls of lazy imports; keep
    # them out of the count.
    run_benchmark(sut, qsl, settings.with_overrides(min_query_count=20),
                  **telemetry)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_benchmark(sut, qsl, settings, **telemetry)
    finally:
        profile.disable()
    assert result.valid and result.log.query_count == settings.min_query_count
    stats = profile.getstats()
    return sum(entry.callcount for entry in stats), result.log, stats


def busiest(stats, per, what, top=10):
    """The ``top`` most-called functions as calls per ``what``, one per
    line: the message of a breached budget."""
    def name(code):
        if isinstance(code, str):
            return code
        return (f"{os.path.basename(code.co_filename)}:"
                f"{code.co_firstlineno} {code.co_name}")

    rows = sorted(stats, key=lambda entry: -entry.callcount)[:top]
    return f"most calls per {what}:\n" + "\n".join(
        f"  {entry.callcount / per:8.2f}  {name(entry.code)}"
        for entry in rows)


def plain_echo():
    return EchoSUT(latency=0.5e-3)


def streamed_echo():
    model = StreamModel(first_token_delay=1e-3, inter_token_delay=1e-4, seed=0)
    return StreamingSUT(plain_echo(), model=model)


def zoned_fleet(registry=None):
    return ReplicaSet(lambda index: plain_echo(), initial_replicas=4,
                      zones=2, policy="zone-spread", registry=registry)


def test_plain_server_run_stays_inside_its_call_budget(echo_qsl):
    calls, log, stats = profiled_run(plain_echo(), echo_qsl)
    per_query = calls / log.query_count
    print(f"plain: {per_query:.2f} calls/query")
    assert per_query <= PLAIN_CALLS_PER_QUERY, busiest(
        stats, log.query_count, "query")


def test_streamed_server_run_stays_inside_its_call_budget(echo_qsl):
    calls, log, stats = profiled_run(streamed_echo(), echo_qsl)
    per_chunk = calls / log.stream_chunks
    print(f"streamed: {per_chunk:.2f} calls/chunk, "
          f"{log.stream_chunks / log.query_count:.1f} chunks/query")
    assert log.stream_chunks > 15 * QUERIES
    assert per_chunk <= STREAM_CALLS_PER_CHUNK, busiest(
        stats, log.stream_chunks, "chunk")


def test_a_burst_schedules_one_arrival_event_per_burst(echo_qsl):
    """Burst mode: each Poisson arrival issues ``server_burst_size``
    queries, so the loop sees one arrival event per burst beside the
    echo's one completion event per query."""
    size = 8
    settings = SERVER.with_overrides(server_burst_size=size,
                                     min_query_count=63 * size)
    calls, log, stats = profiled_run(plain_echo(), echo_qsl, settings)
    per_query = calls / log.query_count
    print(f"burst of {size}: {per_query:.2f} calls/query, "
          f"{scheduled(stats) / log.completed_count:.3f} schedule calls "
          "per completion")
    assert scheduled(stats) <= log.completed_count * (1 + 1 / size)
    assert per_query <= PLAIN_CALLS_PER_QUERY, busiest(
        stats, log.query_count, "query")


@pytest.fixture(scope="module")
def bare_runs():
    """(calls, log, stats) of the unwrapped plain and streamed runs."""
    return (profiled_run(plain_echo(), EchoQSL()),
            profiled_run(streamed_echo(), EchoQSL()))


@pytest.mark.parametrize("wrapper", sorted(WRAPPER_BUDGETS))
def test_wrapper_stays_inside_its_added_call_budget(
        wrapper, bare_runs, echo_qsl):
    wrap, per_query_ceiling, per_chunk_ceiling = WRAPPER_BUDGETS[wrapper]
    (plain_calls, plain_log, _), (stream_calls, stream_log, _) = bare_runs
    wrapped, _, plain_stats = profiled_run(wrap(plain_echo), echo_qsl)
    per_query = (wrapped - plain_calls) / plain_log.query_count
    wrapped, wrapped_log, stream_stats = profiled_run(
        wrap(streamed_echo), echo_qsl)
    assert wrapped_log.stream_chunks == stream_log.stream_chunks
    per_chunk = (wrapped - stream_calls) / stream_log.stream_chunks
    print(f"{wrapper}: +{per_query:.2f} calls/query, "
          f"+{per_chunk:.2f} calls/chunk")
    # The wrapped run's busiest functions, bare run's share included.
    assert per_query <= per_query_ceiling, busiest(
        plain_stats, plain_log.query_count, "query")
    assert per_chunk <= per_chunk_ceiling, busiest(
        stream_stats, stream_log.stream_chunks, "chunk")


def scheduled(stats):
    """How many times the run called ``EventLoop.schedule``."""
    return sum(entry.callcount for entry in stats
               if getattr(entry.code, "co_qualname", "") == "EventLoop.schedule")


def test_a_stream_schedules_one_train_and_nothing_per_chunk(bare_runs):
    """A streamed run calls ``EventLoop.schedule`` at most once per
    stream more than the plain run: the train's first time.  A heap
    entry per chunk made it ~20 per stream."""
    (_, _, plain_stats), (_, stream_log, stream_stats) = bare_runs
    extra = scheduled(stream_stats) - scheduled(plain_stats)
    print(f"streamed: {extra} schedule calls over the plain run's "
          f"{scheduled(plain_stats)}, {stream_log.query_count} streams")
    assert 0 < extra <= stream_log.query_count


@pytest.mark.parametrize("wrapper", sorted(WRAPPER_BUDGETS))
def test_a_healthy_wrapper_schedules_no_heap_event_per_query(
        wrapper, bare_runs, echo_qsl):
    """A deadline is a float on the attempt: what the engine schedules is
    its one timer, twice per timeout interval (the tick, and its step
    behind the instant's arrivals) - nothing that grows with the load.
    A hedged wrapper's earliest instant is a hedge, so its interval is
    the hedge delay."""
    wrap, _, _ = WRAPPER_BUDGETS[wrapper]
    (_, plain_log, bare_stats), _ = bare_runs
    sut = wrap(plain_echo)
    _, log, stats = profiled_run(sut, echo_qsl)
    extra = scheduled(stats) - scheduled(bare_stats)
    interval = getattr(sut, "hedge_delay", None) \
        or getattr(sut, "attempt_timeout", None) \
        or sut.policy.attempt_timeout
    intervals = max(r.completion_time for r in log.records()) / interval
    print(f"{wrapper}: {extra} schedule calls over the bare run's "
          f"{scheduled(bare_stats)}, {intervals:.1f} intervals")
    assert scheduled(bare_stats) >= 2 * plain_log.query_count
    assert 0 < extra <= 2 * (intervals + 1)
    assert extra / log.query_count < 0.1


@pytest.mark.parametrize("valve", sorted(VALVES))
def test_a_quiet_valve_stays_inside_its_added_call_budget(
        valve, bare_runs, echo_qsl):
    ((plain_calls, plain_log, plain_bare),
     (stream_calls, stream_log, stream_bare)) = bare_runs
    wrapped, _, plain_stats = profiled_run(VALVES[valve](plain_echo),
                                           echo_qsl)
    per_query = (wrapped - plain_calls) / plain_log.query_count
    streamed, _, stream_stats = profiled_run(VALVES[valve](streamed_echo),
                                             echo_qsl)
    per_chunk = (streamed - stream_calls) / stream_log.stream_chunks
    print(f"{valve} valve: +{per_query:.2f} calls/query, "
          f"+{per_chunk:.2f} calls/chunk")
    assert per_query <= VALVE_CALLS_PER_QUERY, busiest(
        plain_stats, plain_log.query_count, "query")
    assert per_chunk <= VALVE_CALLS_PER_CHUNK, busiest(
        stream_stats, stream_log.stream_chunks, "chunk")
    assert scheduled(plain_stats) == scheduled(plain_bare)
    assert scheduled(stream_stats) == scheduled(stream_bare)


class HeapWatcher(EchoSUT):
    """An echo that notes the loop's heap size each time it is issued to."""

    peak = 0

    def issue_query(self, query):
        self.peak = max(self.peak, len(self._loop._heap))
        super().issue_query(query)


def test_deadlines_do_not_pile_up_in_the_heap(echo_qsl):
    """5,000 queries at 1,000 qps, ~1 in flight: the heap holds the next
    arrival, the echo's completions and the engine's one timer.  With an
    entry per attempt, cancelled but not yet compacted, it peaked at 75."""
    backend = HeapWatcher(latency=0.5e-3)
    result = run_benchmark(
        ResilientSUT(backend), echo_qsl,
        SERVER.with_overrides(min_query_count=5000))
    assert result.valid and result.log.query_count == 5000
    print(f"heap high-water mark: {backend.peak}")
    assert backend.peak <= 16


def test_zoned_fleet_stays_inside_its_added_call_budget(bare_runs, echo_qsl):
    (plain_calls, plain_log, _), _ = bare_runs
    routed, _, stats = profiled_run(zoned_fleet(), echo_qsl)
    per_query = (routed - plain_calls) / plain_log.query_count
    print(f"zoned fleet: +{per_query:.2f} calls/query")
    assert per_query <= ZONED_FLEET_CALLS_PER_QUERY, busiest(
        stats, plain_log.query_count, "query")


def test_telemetry_stays_inside_its_added_call_budget(echo_qsl):
    bare, log, _ = profiled_run(zoned_fleet(), echo_qsl)
    registry = MetricsRegistry()
    wired, wired_log, stats = profiled_run(
        zoned_fleet(registry), echo_qsl,
        registry=registry, snapshot_period=0.05)
    per_query = (wired - bare) / log.query_count
    print(f"telemetry: +{per_query:.2f} calls/query")
    # The instrumented run's busiest functions, the fleet's included.
    assert per_query <= TELEMETRY_CALLS_PER_QUERY, busiest(
        stats, wired_log.query_count, "query")


# -- the wire codec, without sockets ---------------------------------------------

#: One ISSUE frame of a one-sample query through ``issue_frame``, and
#: one COMPLETE frame (one echoed sample) through ``FrameReader.feed`` +
#: ``parse_complete`` - the per-frame entry points of the tcp path, on
#: the loop thread and on the reader thread.  Measured 4.01 and 39.01
#: calls, the test's own wrapper frame included (python 3.11.7; the
#: ISSUE frame 14.01, ceiling 15.4, before it was one ``pack``; 41.01
#: with a Python-level response constructor); the recursive codec they
#: replaced measured 75.01 and 114.01.
ISSUE_FRAME_CALLS = 4.4
COMPLETE_FRAME_CALLS = 42.9
#: ``SimulatedChannelSUT`` over the echo: calls/query added over the
#: bare run.  It builds an ISSUE and a COMPLETE frame per query to
#: charge their real lengths, so it moves with the codec.  Measured
#: 64.04 (python 3.11.7; 74.04, ceiling 85.9, before the ISSUE frame
#: was one ``pack``; 224.05 with the recursive codec).
CHANNEL_CALLS_PER_QUERY = 70.4

FRAMES = 100


def profiled_frames(work):
    """``work()`` under cProfile, ``FRAMES`` times: (calls/frame, stats)."""
    work()  # type-table misses and lazy imports stay out of the count
    profile = cProfile.Profile()
    profile.enable()
    try:
        for _ in range(FRAMES):
            work()
    finally:
        profile.disable()
    stats = profile.getstats()
    return sum(entry.callcount for entry in stats) / FRAMES, stats


def test_issue_frame_stays_inside_its_call_budget():
    query = Query(id=7, samples=(QuerySample(id=70, index=3),))
    per_frame, stats = profiled_frames(lambda: protocol.issue_frame(query))
    print(f"issue_frame: {per_frame:.2f} calls/frame")
    assert per_frame <= ISSUE_FRAME_CALLS, busiest(stats, FRAMES, "frame")


def test_complete_frame_decode_stays_inside_its_call_budget():
    frame = protocol.complete_frame(
        7, [QuerySampleResponse(70, 3)], server_recv=1.5, server_send=2.5)
    reader = protocol.FrameReader()

    def receive():
        (_, payload), = reader.feed(frame)
        protocol.parse_complete(payload)

    per_frame, stats = profiled_frames(receive)
    print(f"feed + parse_complete: {per_frame:.2f} calls/frame")
    assert per_frame <= COMPLETE_FRAME_CALLS, busiest(stats, FRAMES, "frame")


def test_simulated_channel_stays_inside_its_added_call_budget(
        bare_runs, echo_qsl):
    (plain_calls, plain_log, _), _ = bare_runs
    channel = SimulatedChannelSUT(plain_echo(), ChannelModel(latency=1e-4))
    wrapped, _, stats = profiled_run(channel, echo_qsl)
    per_query = (wrapped - plain_calls) / plain_log.query_count
    print(f"simulated channel: +{per_query:.2f} calls/query")
    assert per_query <= CHANNEL_CALLS_PER_QUERY, busiest(
        stats, plain_log.query_count, "query")


# -- the paper's device model and its other drivers ------------------------------

#: ``SimulatedSUT`` (two engines, one dispatch for nearly every query)
#: in place of the echo: calls/query added over the bare run, for a
#: fixed-cost workload and for one whose cost varies (one lognormal
#: draw, one in-place sort and one strided read per query more).
#: Measured 6.03 and 13.99 (python 3.11.7); with the cost formula in
#: four frames, the clock read through a property and a Python-level
#: response constructor they measured 18.88 and 24.82, and the array
#: intake and twice-evaluated cost formula before that 53.51 and 50.44.
SIMULATED_CALLS_PER_QUERY = {0.0: 6.6, 0.6: 15.4}
#: A MultiStream run whose every tick issues (the echo answers inside
#: the interval), one sample a query: calls per tick, everything from
#: the tick to the logged completion included.  Measured 27.37 (python
#: 3.11.7; 31.88 through ``_schedule_tick`` -> ``schedule_after``).
MULTISTREAM_CALLS_PER_TICK = 30.1


@pytest.mark.parametrize("variability", sorted(SIMULATED_CALLS_PER_QUERY))
def test_simulated_sut_stays_inside_its_added_call_budget(
        variability, bare_runs, echo_qsl):
    (plain_calls, plain_log, _), _ = bare_runs
    device = DeviceModel(
        name="budget-gpu", processor=ProcessorType.GPU, peak_gops=200_000.0,
        base_utilization=0.06, saturation_gops=150.0, overhead=0.2e-3,
        max_batch=32, engines=2)
    sut = SimulatedSUT(device, WorkloadProfile(8.2, variability=variability))
    simulated, log, stats = profiled_run(sut, echo_qsl)
    per_query = (simulated - plain_calls) / plain_log.query_count
    print(f"simulated (variability {variability}): +{per_query:.2f} "
          f"calls/query, {len(sut.dispatch_batches)} dispatches")
    assert per_query <= SIMULATED_CALLS_PER_QUERY[variability], busiest(
        stats, log.query_count, "query")


def test_multistream_tick_stays_inside_its_call_budget(echo_qsl):
    settings = SERVER.with_overrides(
        scenario=Scenario.MULTI_STREAM, multistream_interval=1e-3)
    calls, log, stats = profiled_run(plain_echo(), echo_qsl, settings)
    ticks = sum(entry.callcount for entry in stats
                if getattr(entry.code, "co_name", None) == "_tick")
    assert ticks >= log.query_count
    per_tick = calls / ticks
    print(f"multistream: {per_tick:.2f} calls/tick over {ticks} ticks")
    assert per_tick <= MULTISTREAM_CALLS_PER_TICK, busiest(
        stats, ticks, "tick")


# -- the wire client, over a real socket -----------------------------------------

#: ``NetworkSUT`` over an in-process ``InferenceServer`` on loopback:
#: calls per SingleStream query on the loop thread, counted inside loop
#: callbacks only - the placement of the ``tcp_server`` benchmark's
#: count pass, which leaves out the LoadGen's janitor and watchdog (they
#: tick with wall time, not with queries) and the waits between
#: callbacks.  The server's threads are not profiled.  Measured 45.94
#: (python 3.11.7; 60.90 with the ISSUE frame built by the general
#: encoder, a wall-clock reading in a Python frame, and the realtime
#: re-read of a SingleStream completion through ``loop.now``).
WIRE_CLIENT_CALLS_PER_QUERY = 50.5
WIRE_QUERIES = 300


def profile_loop_callbacks(profile, patch):
    """Turn ``profile`` on inside event-loop callbacks only, the
    LoadGen's own janitor and watchdog left out."""
    schedule, post = EventLoop.schedule, EventLoop.post

    def profiled(callback):
        if getattr(callback, "__module__", None) == "repro.core.loadgen":
            return callback

        def run_profiled():
            profile.enable()
            try:
                callback()
            finally:
                profile.disable()
        return run_profiled

    patch.setattr(EventLoop, "schedule", lambda self, when, callback:
                  schedule(self, when, profiled(callback)))
    patch.setattr(EventLoop, "post", lambda self, callback:
                  post(self, profiled(callback)))


def wire_run(address, qsl, queries):
    client = NetworkSUT(address)
    settings = TestSettings(
        scenario=Scenario.SINGLE_STREAM, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=60.0, seed=0)
    try:
        result = run_benchmark(client, qsl, settings, clock=WallClock())
    finally:
        client.close()
    assert result.valid and result.log.query_count == queries
    assert client.stats.retries == 0
    return result.log


@pytest.mark.socket
def test_wire_client_stays_inside_its_call_budget(echo_qsl, monkeypatch):
    server = InferenceServer(EchoSUT(latency=0.0), ServerConfig(workers=1))
    address = server.start()
    try:
        wire_run(address, echo_qsl, 20)  # lazy imports, type-table misses
        profile = cProfile.Profile()
        with monkeypatch.context() as patch:
            profile_loop_callbacks(profile, patch)
            log = wire_run(address, echo_qsl, WIRE_QUERIES)
    finally:
        server.stop()
    stats = profile.getstats()
    per_query = sum(entry.callcount for entry in stats) / log.query_count
    print(f"wire client: {per_query:.2f} calls/query on the loop thread")
    assert per_query <= WIRE_CLIENT_CALLS_PER_QUERY, busiest(
        stats, log.query_count, "query")
