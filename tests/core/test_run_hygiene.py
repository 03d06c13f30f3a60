"""What a run leaves behind: a heap that does not hoard cancelled
deadlines while it runs, and no cyclic garbage once it has finished.

The wrapped version: with the collector off, a finished run of any
stack - every layer, a fleet with its services and registry, a
journaled run, the wire - is freed by reference counting once the
caller drops its result and the stack.  When one is not,
:func:`cycle_report` names the types in the garbage and the attribute
edges that close its cycles.
"""

import collections
import functools
import gc
import threading
import time
import types
import weakref
from dataclasses import replace

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import WallClock
from repro.core.query import QueryRecord, QuerySampleResponse
from repro.core.sut import SutBase
from repro.durability import RunJournal
from repro.faults import ChaosEvent, ChaosSchedule, ResilientSUT, RetryPolicy
from repro.harness.netbench import SyntheticQSL
from repro.harness.stack import (
    DeviceBackend,
    EchoBackend,
    FleetSpec,
    NetworkBackend,
    StackSpec,
    build,
)
from repro.metrics import MetricsRegistry
from repro.network.server import InferenceServer
from repro.network.simulated import ChannelModel
from repro.streaming import StreamModel, StreamingSUT
from repro.core.config import Task
from repro.sut.echo import EchoSUT
from repro.sut.fleet import build_fleet, task_workload

from tests.integration.test_rerun_contract import FLEET_SPEC, session_settings
from tests.integration.test_wrapper_contract import SHAPES, run_settings


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


# -- the wrapped version: every stack frees itself ------------------------------

#: Objects that only carry links between instances: a report follows
#: them to the instances behind them.
_PLUMBING = (dict, list, tuple, set, frozenset, collections.deque,
             types.FunctionType, types.MethodType, types.CellType,
             functools.partial)


def _links(obj):
    """What ``obj`` holds, the way a plumbing object holds it (a
    function: its closure, not its module)."""
    kind = type(obj)
    if kind is dict:
        return list(obj.values())
    if kind is types.FunctionType:
        return [c.cell_contents for c in obj.__closure__ or ()
                if c.cell_contents is not None]
    if kind is types.MethodType:
        return [obj.__self__]
    if kind is types.CellType:
        return [obj.cell_contents]
    if kind is functools.partial:
        return [obj.func, *obj.args, *obj.keywords.values()]
    return list(obj)


def _edges(obj, garbage_ids):
    """``(attribute, instance)`` for every instance in the garbage that
    ``obj`` reaches through plumbing alone."""
    if isinstance(obj, (list, tuple)):
        named = [(f"[{i}]", v) for i, v in enumerate(obj)]
    else:
        named = list(getattr(obj, "__dict__", {}).items())
        for cls in type(obj).__mro__:
            slots = getattr(cls, "__slots__", ())
            for slot in (slots,) if isinstance(slots, str) else slots:
                if slot != "__dict__" and hasattr(obj, slot):
                    named.append((slot, getattr(obj, slot)))
    for name, value in named:
        queue, seen = [value], set()
        while queue:
            item = queue.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            if type(item) in _PLUMBING:
                queue.extend(_links(item))
            elif id(item) in garbage_ids:
                yield name, item


def cycle_report(garbage) -> str:
    """The garbage a collection found, by type, then each attribute edge
    ``Type.attribute -> Type`` that lies on one of its cycles."""
    counts = collections.Counter(type(o).__qualname__ for o in garbage)
    lines = [f"{len(garbage)} objects of cyclic garbage:"]
    lines += [f"  {n:6d} {name}" for name, n in counts.most_common(25)]
    ids = {id(o) for o in garbage}
    nodes = [o for o in garbage if type(o) not in _PLUMBING]
    graph = {id(o): [(name, id(t)) for name, t in _edges(o, ids)]
             for o in nodes}
    kinds = {id(o): type(o).__qualname__ for o in nodes}
    # Trim what cannot lie on a cycle - no edge in, or none out - until
    # nothing changes: the edges left close the cycles.
    live = set(graph)
    while True:
        entered = {b for a in live for _, b in graph[a] if b in live}
        kept = {a for a in live & entered
                if any(b in live for _, b in graph[a])}
        if kept == live:
            break
        live = kept
    closing = collections.Counter(
        f"{kinds[a]}.{name} -> {kinds[b]}"
        for a in live for name, b in graph[a] if b in live)
    lines.append("attribute edges on a cycle:")
    lines += [f"  {n:6d} {edge}" for edge, n in sorted(closing.items())]
    return "\n".join(lines)


def collected_garbage():
    """What a full collection finds unreachable now (and frees)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def assert_frees_itself(run):
    """``run()`` runs a stack and returns its result and the objects to
    watch (the top SUT, the registry); once the caller drops them, with
    the collector off, each must be gone and no cycle left behind."""
    gc.collect()
    gc.disable()
    try:
        result, *held = run()
        watched = [weakref.ref(o) for o in (result.log, *held)
                   if o is not None]
        del result, held
        alive = [type(ref()).__name__ for ref in watched
                 if ref() is not None]
        garbage = collected_garbage()
    finally:
        gc.enable()
    assert not alive and not garbage, (
        f"still alive after the run was dropped: {alive}\n"
        + cycle_report(garbage))


ECHO = EchoBackend(0.001)
GRAY = ChaosSchedule((ChaosEvent(0.01, 0.05, "gray-failure", "replica:1",
                                 8.0),))

#: The specs ``tests/harness/test_stack.py`` builds, by what they stand
#: for, and a simulated device.
CATALOGUE = {
    "bare": StackSpec(backend=EchoBackend(0.002, concurrency=3)),
    "streamed": StackSpec(backend=ECHO, stream=StreamModel()),
    "every-layer": StackSpec(
        backend=ECHO, stream=StreamModel(), channel=ChannelModel(),
        outage=(0.1, 0.2), retry=RetryPolicy(), standby=ECHO,
        cache_tokens=1024),
    "cache": StackSpec(backend=ECHO, cache_tokens=8192),
    "device": StackSpec(backend=DeviceBackend(
        build_fleet()[13].device,
        task_workload(Task.IMAGE_CLASSIFICATION_HEAVY),
        batch_window=0.001)),
    "fleet-cache": StackSpec(backend=ECHO, cache_tokens=8192,
                             fleet=FleetSpec(2, 2)),
    "fleet-detector": StackSpec(backend=ECHO,
                                fleet=FleetSpec(1, 1, detector=True)),
    "fleet-services": StackSpec(
        backend=ECHO, cache_tokens=4096,
        fleet=FleetSpec(replicas=3, max_replicas=6, zones=3,
                        balancer="zone-spread", attempt_timeout=0.5,
                        chaos=GRAY, detector=True,
                        autoscale="cache-miss-rate")),
}


def small_sessions(seed=3):
    return replace(session_settings(seed), session_count=40)


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_a_finished_stack_is_freed_without_the_collector(name):
    def run():
        stack = build(CATALOGUE[name], 3, MetricsRegistry())
        result = stack.run(SyntheticQSL(), small_sessions(),
                           registry=stack.registry)
        assert result.log.completed_count > 0
        return result, stack.sut, stack.registry

    assert_frees_itself(run)


def test_the_session_fleet_is_freed_without_the_collector():
    """Four zoned replicas with caches, chaos, the detector, a registry
    and its snapshot sampler: ``session_fleet_chaos`` in small."""
    def run():
        stack = build(FLEET_SPEC, 0, MetricsRegistry())
        result = stack.run(SyntheticQSL(), session_settings(0),
                           registry=stack.registry, snapshot_period=0.05)
        assert result.valid and stack.sut.stats.ejections >= 1
        return result, stack.sut, stack.registry

    assert_frees_itself(run)


@pytest.mark.parametrize("streamed", (False, True),
                         ids=("plain", "streamed"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_faulty_stack_is_freed_without_the_collector(shape, streamed):
    def run():
        sut = SHAPES[shape](0, streamed)
        return run_benchmark(sut, SyntheticQSL(), run_settings(0)), sut

    assert_frees_itself(run)


def test_a_journaled_run_is_freed_without_the_collector(tmp_path):
    def run():
        sut = ResilientSUT(StreamingSUT(EchoSUT(latency=0.0005),
                                        StreamModel(seed=2)))
        result = run_benchmark(
            sut, SyntheticQSL(), server_settings(200),
            journal=RunJournal(str(tmp_path / "run.journal"),
                               checkpoint_period=0.05))
        assert result.valid
        return result, sut

    assert_frees_itself(run)


def wall_settings(**overrides):
    return replace(TestSettings(
        scenario=Scenario.SERVER, server_target_qps=200.0,
        server_latency_bound=0.1, min_query_count=40, min_duration=0.0,
        watchdog_timeout=20.0), **overrides)


@pytest.mark.socket
def test_a_network_stack_is_freed_without_the_collector():
    """Run twice, as a stack may be: the second run's pool replaces the
    first's, whose reader thread must not outlive it (the socket guard
    fails a test that leaves a thread behind)."""
    server = InferenceServer(EchoSUT(latency=0.001))
    address = server.start()
    try:
        def run():
            stack = build(StackSpec(NetworkBackend(address),
                                    retry=RetryPolicy()), 0)
            stack.run(SyntheticQSL(), wall_settings())
            result = stack.run(SyntheticQSL(), wall_settings())
            stack.close()
            assert result.valid
            return result, stack.sut

        assert_frees_itself(run)
    finally:
        server.stop()


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any thread during the test."""
    errors = []
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: errors.append(args.exc_value))
    return errors


@pytest.mark.socket
def test_a_frame_that_arrives_after_the_run_is_absorbed(thread_errors):
    """The server answers after the client gave up and the run ended:
    the reader thread receives the frames and lets them go."""
    server = InferenceServer(EchoSUT(latency=1.0))
    stack = build(StackSpec(NetworkBackend(server.start(),
                                           query_timeout=0.02)), 0)
    client = stack.channel
    try:
        result = stack.run(SyntheticQSL(), wall_settings(
            min_query_count=4, server_target_qps=100.0))
        assert result.log.failed_count == result.log.query_count >= 4
        received = client.stats.bytes_received
        deadline = time.monotonic() + 5.0
        while (client.stats.bytes_received == received
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert client.stats.bytes_received > received  # a late frame came
        time.sleep(0.05)  # and went through the reader's hand-off
    finally:
        stack.close()
        server.stop()
    assert thread_errors == []


class LateSUT(SutBase):
    """Answers from a thread of its own, long after the watchdog has
    stopped the run - by posting to the loop, as a thread must."""

    def __init__(self):
        super().__init__("late")
        self.timers = []

    def issue_query(self, query):
        responses = [QuerySampleResponse(s.id, s.index)
                     for s in query.samples]

        def answer():
            self._loop.post(lambda: self.complete(query, responses))

        timer = threading.Timer(0.15, answer)
        self.timers.append(timer)
        timer.start()


def test_a_straggler_after_the_loop_stopped_is_absorbed(thread_errors):
    sut = LateSUT()
    result = run_benchmark(sut, SyntheticQSL(), wall_settings(
        min_query_count=2, watchdog_timeout=0.05), clock=WallClock())
    assert result.stats.watchdog_fired and not result.valid
    for timer in sut.timers:
        timer.join()
    assert thread_errors == []


class Silent(SutBase):
    """Never answers."""

    def issue_query(self, query):
        pass


def test_a_run_the_watchdog_stopped_is_freed_without_the_collector():
    """The watchdog stops the loop with arrivals and a retry deadline
    still due; each of those events holds the loop."""
    def run():
        sut = ResilientSUT(Silent("silent"),
                           RetryPolicy(attempt_timeout=60.0,
                                       total_timeout=120.0))
        result = run_benchmark(sut, SyntheticQSL(), replace(
            server_settings(50), watchdog_timeout=1.0))
        assert result.stats.watchdog_fired
        return result, sut

    assert_frees_itself(run)
