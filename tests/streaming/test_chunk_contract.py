"""What a :class:`StreamChunk` is, from the outside, so its inside can
change: its fields and defaults, how it is built and printed, that it
compares and hashes by identity, that a subclass is still a chunk - and
that every screen a chunk passes on its way to the referee takes it as
progress, never as a response sequence (a chunk that were a sequence of
its fields must still not be mistaken for a response list)."""

import inspect
from unittest import mock

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock
from repro.core.logging import QueryLog
from repro.core.query import (
    Query,
    QueryFailure,
    QuerySample,
    QuerySampleResponse,
    StreamChunk,
)
from repro.core.sampler import SampleSelector
from repro.core.scenarios import PerformanceSource, make_driver
from repro.core.sut import SutBase
from repro.faults.filtering import Attempt, AttemptSUT
from repro.faults.sut import WindowedSUT, Window
from repro.fleet import ReplicaSet
from repro.network import protocol
from repro.network.protocol import FrameReader, FrameType
from repro.network.server import _BackendRunner
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.streaming import StreamModel, StreamingSUT, streaming_echo

pytestmark = pytest.mark.streaming


class TaggedChunk(StreamChunk):
    """A chunk subclass with an attribute of its own."""


CHUNK_TYPES = [StreamChunk, TaggedChunk]


def query(qid: int = 1, samples: int = 1) -> Query:
    return Query(id=qid, samples=tuple(
        QuerySample(id=10 * qid + i, index=i) for i in range(samples)))


def answers(q):
    return [QuerySampleResponse(s.id, None) for s in q.samples]


class Held(SutBase):
    """Keeps what it is issued; the test answers through ``complete``."""

    def __init__(self, name: str = "held") -> None:
        super().__init__(name)
        self.queries = []

    def issue_query(self, q) -> None:
        self.queries.append(q)


def started(sut):
    """``sut`` on a fresh virtual loop; returns the loop and the list of
    ``(loop.now, query id, arrival)`` its responder hears."""
    loop, heard = EventLoop(VirtualClock()), []
    sut.start_run(loop, lambda q, a: heard.append((loop.now, q.id, a)))
    return loop, heard


# -- the value ----------------------------------------------------------------

class TestTheValue:
    def test_fields_and_defaults(self):
        params = inspect.signature(StreamChunk).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("query_id", inspect.Parameter.empty),
            ("seq", inspect.Parameter.empty),
            ("token_count", 1), ("last", False), ("data", None)]
        chunk = StreamChunk(7, 3)
        assert (chunk.query_id, chunk.seq, chunk.token_count, chunk.last,
                chunk.data) == (7, 3, 1, False, None)

    @pytest.mark.parametrize("build", [
        lambda: StreamChunk(7, 3, 2, True, b"tok"),
        lambda: StreamChunk(7, 3, 2, True, data=b"tok"),
        lambda: StreamChunk(7, 3, token_count=2, last=True, data=b"tok"),
        lambda: StreamChunk(query_id=7, seq=3, token_count=2, last=True,
                            data=b"tok"),
        lambda: StreamChunk(data=b"tok", last=True, token_count=2, seq=3,
                            query_id=7),
    ], ids=["positional", "data-keyword", "three-keywords", "keywords",
            "keywords-reversed"])
    def test_positional_and_keyword_construction_agree(self, build):
        chunk = build()
        assert (chunk.query_id, chunk.seq, chunk.token_count, chunk.last,
                chunk.data) == (7, 3, 2, True, b"tok")

    @pytest.mark.parametrize("args,kwargs", [
        ((), {}), ((1,), {}), ((1, 2, 3, True, None, "extra"), {}),
        ((1, 2), {"tokens": 3}), ((1,), {"query_id": 1, "seq": 2}),
    ], ids=["nothing", "no-seq", "too-many", "unknown-keyword", "twice"])
    def test_bad_construction_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            StreamChunk(*args, **kwargs)

    def test_repr_names_every_field_but_the_data(self):
        assert repr(StreamChunk(7, 3)) == (
            "StreamChunk(query_id=7, seq=3, token_count=1, last=False)")
        assert repr(StreamChunk(7, 3, 2, True, data=[1, 2])) == (
            "StreamChunk(query_id=7, seq=3, token_count=2, last=True)")
        assert repr(TaggedChunk(1, 0)) == (
            "StreamChunk(query_id=1, seq=0, token_count=1, last=False)")

    def test_equal_only_to_itself(self):
        chunk, twin = StreamChunk(1, 0, 1, True), StreamChunk(1, 0, 1, True)
        assert chunk == chunk and not chunk != chunk
        assert chunk != twin and not chunk == twin
        fields = (1, 0, 1, True, None)
        assert chunk != fields and fields != chunk
        assert not chunk == fields and not fields == chunk
        assert chunk != [1, 0, 1, True, None] and chunk != "chunk"
        # An operand with an ``__eq__`` of its own still gets its say.
        assert chunk == mock.ANY and mock.ANY == chunk

    def test_hashed_by_identity(self):
        chunk, twin = StreamChunk(1, 0), StreamChunk(1, 0)
        assert hash(chunk) == hash(chunk)
        assert len({chunk, twin, chunk}) == 2
        assert {chunk: "a", twin: "b"}[chunk] == "a"
        # Unhashable data does not make the chunk unhashable.
        assert hash(StreamChunk(1, 0, data=[1, 2])) is not None

    def test_a_subclass_is_a_chunk_with_room_for_its_own(self):
        chunk = TaggedChunk(4, 2, 3, True)
        chunk.tag = "replayed"
        assert isinstance(chunk, StreamChunk) and chunk.tag == "replayed"
        assert (chunk.query_id, chunk.seq, chunk.token_count, chunk.last,
                chunk.data) == (4, 2, 3, True, None)
        assert chunk != TaggedChunk(4, 2, 3, True) and chunk == chunk
        assert len({chunk, TaggedChunk(4, 2, 3, True)}) == 2


# -- the screens --------------------------------------------------------------

def single_stream_driver():
    loop = EventLoop()
    sut, log = Held(), QueryLog()
    driver = make_driver(
        loop, TestSettings(scenario=Scenario.SINGLE_STREAM,
                           min_query_count=3, min_duration=0.0),
        sut, PerformanceSource(SampleSelector(range(8), seed=1)), log)
    sut.start_run(loop, driver.handle_completion)
    driver.start()
    return driver, sut, log


@pytest.mark.parametrize("chunk_type", CHUNK_TYPES)
class TestEveryScreenTakesAChunkAsProgress:
    def test_the_referee(self, chunk_type):
        driver, sut, log = single_stream_driver()
        q = sut.queries[0]
        driver.handle_completion(q, chunk_type(q.id, 0, 2))
        driver.handle_completion(q, chunk_type(q.id, 1, 3, True))
        record = log.record_for(q.id)
        assert (record.chunk_count, record.token_count) == (2, 5)
        assert record.stream_closed and not (record.completed or record.failed)
        assert len(sut.queries) == 1 and log.anomaly_count == 0
        driver.handle_completion(q, answers(q))
        assert record.completed and len(sut.queries) == 2
        assert log.anomaly_count == 0

    def test_the_attempt_engine(self, chunk_type):
        reached = []

        class Sorter(AttemptSUT):
            def _advanced(self, state):
                return 1.0

            def _expired(self, state):
                reached.append("expired")

            def _flawed(self, state, source, reason, failure):
                reached.append(("flawed", reason))

            def _clean(self, state, source, responses):
                reached.append(("clean", responses))

            def _absorbed(self, chunk):
                reached.append(("absorbed", chunk))

        sut = Sorter("sorter")
        sut.start_run(EventLoop(), lambda q, a: reached.append(("heard", a)))
        q = query(1, samples=5)  # as many samples as a chunk has fields
        state = sut._inflight[q.id] = Attempt(q, 0.0)
        sut._arm(state, 1.0)
        first, second = chunk_type(q.id, 0), chunk_type(q.id, 1, 1, True)
        sut._deliver(None, q.id, first)
        sut._deliver(None, q.id, second)
        sut._deliver(None, 99, chunk_type(99, 0))  # nobody asked
        assert reached == [("heard", first), ("heard", second),
                           ("absorbed", True)]
        assert q.id in sut._inflight  # a chunk resolves nothing

    def test_the_fault_valve(self, chunk_type):
        # A stretch of 2 from t=0 holds a delivery back by the time since
        # its issue, which the valve forgets at the terminal delivery only.
        inner = Held()
        valve = WindowedSUT(inner, [Window(0.0, float("inf"), "stretch",
                                           2.0)])
        loop, heard = started(valve)
        q = query()
        valve.issue_query(q)
        first, second = chunk_type(q.id, 0), chunk_type(q.id, 1, 1, True)
        after = chunk_type(q.id, 2)
        responses = answers(q)

        def at_one():
            inner.emit_chunk(q, first)
            inner.emit_chunk(q, second)
            inner.complete(q, responses)
            inner.emit_chunk(q, after)  # after the terminal: not held

        loop.schedule(1.0, at_one)
        loop.run()
        assert heard == [(1.0, q.id, after), (2.0, q.id, first),
                         (2.0, q.id, second), (2.0, q.id, responses)]
        assert valve.slowed == 3

    def test_the_fleet_probe(self, chunk_type):
        replica = Held("replica")
        fleet = ReplicaSet(lambda index: replica, initial_replicas=1)
        loop, heard = started(fleet)
        probed = []
        q = query(5)
        fleet.probe_replica(0, q, lambda pq, outcome: probed.append(outcome))
        replica.emit_chunk(q, chunk_type(q.id, 0, 1, True))
        assert probed == [] and heard == []  # probes wait for the outcome
        responses = answers(q)
        replica.complete(q, responses)
        assert probed == [responses] and heard == []

    def test_the_simulated_channel(self, chunk_type):
        inner = Held()
        channel = SimulatedChannelSUT(inner, ChannelModel(latency=0.001))
        loop, heard = started(channel)
        q = query()
        channel.issue_query(q)
        loop.run()
        chunks = [chunk_type(q.id, 0), chunk_type(q.id, 1, 1, True)]
        responses = answers(q)
        for chunk in chunks:
            inner.emit_chunk(q, chunk)
        inner.complete(q, responses)
        loop.run()
        assert [arrival for _, _, arrival in heard] == chunks + [responses]
        assert heard[0][2] is chunks[0] and heard[1][2] is chunks[1]
        stats = channel.stats
        assert (stats.chunks_forwarded, stats.completions_forwarded) == (2, 1)

    def test_a_streaming_wrapper_over_a_streaming_inner(self, chunk_type):
        inner = Held()
        outer = StreamingSUT(inner, model=StreamModel(min_tokens=2,
                                                      max_tokens=2))
        loop, heard = started(outer)
        q = query(1, samples=5)
        chunk = chunk_type(q.id, 0, 4)
        inner.emit_chunk(q, chunk)
        # Passed straight through: no stream of the outer's own begun.
        assert heard == [(0.0, q.id, chunk)] and loop.pending() == 0
        inner.complete(q, answers(q))
        assert loop.pending() == 2
        loop.run()
        delivered = [a for _, _, a in heard]
        assert [type(a) for a in delivered] == [
            chunk_type, StreamChunk, StreamChunk, list]
        assert [(c.seq, c.last) for c in delivered[1:3]] == [
            (0, False), (1, True)]

    def test_the_server_and_the_wire(self, chunk_type):
        # The server's backend runner hands chunks to its sink, the wire
        # carries their fields, and the client's parse is a plain chunk
        # the referee takes as progress.
        runner = _BackendRunner(Held())
        sunk = []
        runner._on_chunk = sunk.append
        q = query(3)
        sent = chunk_type(q.id, 0, 2, True, b"tok")
        runner._capture(q, sent)
        assert sunk == [sent] and runner._result is None
        frame = protocol.chunk_frame(sent.query_id, sent.seq,
                                     sent.token_count, sent.last, sent.data)
        (ftype, payload), = FrameReader().feed(frame)
        parsed = protocol.parse_chunk(payload)
        assert ftype is FrameType.CHUNK and type(parsed) is StreamChunk
        assert (parsed.query_id, parsed.seq, parsed.token_count,
                parsed.last, parsed.data) == (3, 0, 2, True, b"tok")
        driver, sut, log = single_stream_driver()
        issued = sut.queries[0]
        payload["query_id"] = issued.id
        driver.handle_completion(issued, protocol.parse_chunk(payload))
        record = log.record_for(issued.id)
        assert record.stream_closed and not (record.completed or record.failed)
        assert log.anomaly_count == 0


def test_a_streamed_echo_behind_the_server_runner():
    """Every chunk a streaming backend emits reaches the runner's sink;
    the run returns the terminal response list, not a chunk."""
    runner = _BackendRunner(streaming_echo(model=StreamModel(
        first_token_delay=0.0, inter_token_delay=0.0, min_tokens=5,
        max_tokens=5)))
    q = query(2, samples=2)
    sunk = []
    outcome = runner.run(q, on_chunk=sunk.append)
    assert not isinstance(outcome, (StreamChunk, QueryFailure))
    assert [r.sample_id for r in outcome] == [20, 21]
    assert [(c.query_id, c.seq, c.last) for c in sunk] == [
        (2, 0, False), (2, 1, False), (2, 2, False), (2, 3, False),
        (2, 4, True)]
    assert all(type(c) is StreamChunk for c in sunk)
