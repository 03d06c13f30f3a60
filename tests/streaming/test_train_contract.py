"""Where a stream's chunks land among the loop's other events, pinned
against the per-chunk scheduling loop ``StreamingSUT._begin_stream``
first shipped with, kept here verbatim as the oracle.

Every delivery a run makes - chunks, completions, and "foreign" events
scheduled by the test at a later chunk's exact instant - is recorded as
``(firing index, loop.now, query id, payload)``: which loop callback
made it, when, for whom, what.  The shipped ``StreamingSUT`` must give
the oracle's sequence exactly, so a foreign event scheduled before a
stream begins, between two streams, or from inside a chunk callback
lands where the per-chunk loop put it.
"""

from typing import List, Optional, Tuple

import pytest

from repro.core.events import EventLoop, VirtualClock
from repro.core.query import (Query, QuerySample, QuerySampleResponse,
                              StreamChunk)
from repro.streaming import StreamModel, StreamingSUT
from repro.streaming.model import ChunkEvent
from repro.sut.echo import EchoSUT

pytestmark = pytest.mark.streaming


# ``_StreamReplay`` as it shipped with the per-chunk ``_begin_stream``,
# verbatim: the oracle's callback, which builds each chunk as it fires.
class _StreamReplay:
    """One stream being replayed: the callback of its train, which fires
    once per chunk.  Each firing builds and delivers the chunk the cursor
    is on; the final one also delivers the terminal completion, so
    nothing can run between the last chunk and the completion.

    A class, not a closure: it lives in this module (the benchmark's
    tracer attributes loop events by the callback's module) and its repr
    is free of object addresses (``RunAbortedError.origin`` falls back to
    it, and a verdict must not differ between same-seed runs).
    """

    __slots__ = ("sut", "query", "chunks", "responses", "seq")

    def __init__(self, sut: "StreamingSUT", query: Query,
                 chunks: Tuple[ChunkEvent, ...],
                 responses: List[QuerySampleResponse]) -> None:
        self.sut = sut
        self.query = query
        self.chunks = chunks
        self.responses = responses
        #: The chunk the next firing delivers.
        self.seq = 0

    def __call__(self) -> None:
        seq, query, respond = self.seq, self.query, self.sut._responder
        _, token_count, last = self.chunks[seq]
        respond(query, StreamChunk(query.id, seq, token_count, last))
        if last:
            respond(query, self.responses)
        # Only now: a delivery that raised is still the one repr names.
        self.seq = seq + 1

    def __repr__(self) -> str:
        return f"<stream chunk {self.seq} of query {self.query.id}>"


class PerChunkSUT(StreamingSUT):
    """``StreamingSUT`` with ``_begin_stream`` as first shipped."""

    def _begin_stream(self, query, responses) -> None:
        chunks = self.model.plan(query.id).chunks
        loop = self.loop
        start = loop.now
        replay = _StreamReplay(self, query, chunks, responses)
        # One schedule call per chunk, in plan order: the events take the
        # sequence numbers, and so the place among same-instant events,
        # that a callback per chunk would give them.
        for event in chunks:
            loop.schedule(start + event.offset, replay)


MODELS = {
    "default": dict(),
    "one-instant": dict(first_token_delay=0.0, inter_token_delay=0.0),
    "one-token": dict(min_tokens=1, max_tokens=1),
    # The first chunk lands at the instant its stream begins.
    "first-at-once": dict(first_token_delay=0.0),
    # Every chunk after the first lands on one instant.
    "zero-gap": dict(inter_token_delay=0.0),
    # Every offset a multiple of 1 ms: chunks of staggered streams meet.
    "lockstep": dict(first_token_delay=0.001, inter_token_delay=0.001),
    # Past seq 40, so the scripts' later-chunk instants are all real.
    "long": dict(min_tokens=48, max_tokens=64),
}


def query(qid: int) -> Query:
    return Query(id=qid, samples=(QuerySample(id=100 + qid, index=qid),))


def value(response):
    if isinstance(response, StreamChunk):
        return ("chunk", response.query_id, response.seq,
                response.token_count, response.last)
    if isinstance(response, str):
        return response
    return ("done", tuple((r.sample_id, r.data) for r in response))


class Run:
    """One loop, one ``sut_class`` over an echo, and the record of every
    delivery.  ``loop.schedule`` is wrapped per instance so each callback
    the loop fires bumps ``fired``: the first element of a record."""

    def __init__(self, sut_class, model: StreamModel,
                 latency: float = 0.0) -> None:
        self.model = model
        self.loop = loop = EventLoop(VirtualClock())
        self.sut = sut_class(EchoSUT(latency=latency), model=model)
        self.fired = 0
        self.log: List[tuple] = []
        #: query id -> the instant each of its streams began.
        self.starts = {}
        schedule = loop.schedule

        def counting(when, callback):
            def event():
                self.fired += 1
                callback()
            return schedule(when, event)

        loop.schedule = counting
        begin = self.sut._begin_stream

        def noting(q, responses):
            self.starts.setdefault(q.id, []).append(loop.now)
            begin(q, responses)

        self.sut._begin_stream = noting
        self.sut.start_run(loop, self.heard)
        #: Called with (query id, chunk seq) on every chunk heard.
        self.on_chunk = None

    def heard(self, q, response) -> None:
        self.log.append((self.fired, self.loop.now, q.id, value(response)))
        if self.on_chunk is not None and isinstance(response, StreamChunk):
            self.on_chunk(q.id, response.seq)

    def chunk_instant(self, qid: int, seq: int,
                      start: Optional[float] = None) -> float:
        """``start + offset``: the float the stream schedules chunk
        ``seq`` of query ``qid`` at, for a stream begun at ``start``."""
        chunks = self.model.plan(qid).chunks
        offset = chunks[min(seq, len(chunks) - 1)].offset
        begun = self.starts[qid][-1] if start is None else start
        return begun + offset

    def foreign(self, when: float, tag: str) -> None:
        loop = self.loop
        loop.schedule(when, lambda: self.log.append(
            (self.fired, loop.now, None, tag)))

    def issue_at(self, when: float, qid: int) -> None:
        self.loop.schedule(when, lambda: self.sut.issue_query(query(qid)))

    def finish(self) -> List[tuple]:
        self.loop.run()
        assert self.loop.pending() == 0
        return self.log


def both(script, model_kwargs, latency=0.0, seed=5):
    """The delivery sequence ``script(run)`` gives with the oracle and
    with the shipped SUT; asserts they are equal and returns it."""
    model = StreamModel(seed=seed, **model_kwargs)
    logs = []
    for sut_class in (PerChunkSUT, StreamingSUT):
        run = Run(sut_class, model, latency)
        script(run)
        logs.append(run.finish())
    oracle, shipped = logs
    assert shipped == oracle
    return oracle


def streams_of(log):
    """query id -> the number of completions the log holds for it."""
    done = {}
    for _, _, qid, payload in log:
        if isinstance(payload, tuple) and payload[0] == "done":
            done[qid] = done.get(qid, 0) + 1
    return done


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_issued_at_once_and_staggered_streams_deliver_like_the_oracle(kind):
    """Six streams begun at t=0 outside the loop (one query id twice,
    back to back), then six begun from loop events, some at one instant
    and some from inside the echo's own completion events."""
    def script(run):
        for qid in (0, 1, 2, 3, 3, 4):
            run.sut.issue_query(query(qid))
        for when, qid in ((0.0, 5), (0.0, 6), (0.0021, 7), (0.0021, 7),
                          (0.004, 8), (0.0045, 9)):
            run.issue_at(when, qid)

    log = both(script, MODELS[kind])
    assert streams_of(log) == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1,
                               7: 2, 8: 1, 9: 1}

    # The same again with the streams begun from the echo's completion
    # events (a 1 ms echo), so each train is scheduled inside a callback.
    log = both(script, MODELS[kind], latency=0.001)
    assert streams_of(log)[3] == 2 and streams_of(log)[7] == 2


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_one_query_id_streamed_twice_back_to_back(kind):
    """A retry's second answer: the two streams of query 3 begin at the
    same instant and their chunks interleave by scheduling order."""
    def script(run):
        run.sut.issue_query(query(3))
        run.sut.issue_query(query(3))
        run.issue_at(0.001, 3)
        run.issue_at(0.001, 3)

    log = both(script, MODELS[kind])
    assert streams_of(log) == {3: 4}
    seqs = [payload[2] for _, _, _, payload in log if payload[0] == "chunk"]
    assert seqs.count(0) == 4


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_foreign_event_at_a_later_chunks_instant_scheduled_before_the_stream(
        kind):
    """Scheduled before the stream begins, the foreign event holds the
    lower sequence number: it fires before the chunk that shares its
    instant."""
    def script(run):
        for seq in (0, 1, 2, 5, 40):
            run.foreign(run.chunk_instant(0, seq, start=0.0),
                        f"before-0-chunk-{seq}")
            run.foreign(run.chunk_instant(1, seq, start=0.002),
                        f"before-1-chunk-{seq}")
        run.sut.issue_query(query(0))
        run.issue_at(0.002, 1)

    log = both(script, MODELS[kind])
    order = [payload for _, _, _, payload in log]
    chunk_of_0 = [p for p in order if p[0] == "chunk" and p[1] == 0]
    first = chunk_of_0[1 if len(chunk_of_0) > 1 else 0]
    assert order.index("before-0-chunk-1") < order.index(first)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_foreign_event_scheduled_between_two_streams(kind):
    """Between two streams begun at one instant, a foreign event at the
    first stream's later chunk instants sits after all of the first
    stream's same-instant chunks and before the second's."""
    def script(run):
        run.sut.issue_query(query(0))
        for seq in (0, 1, 3, 40):
            run.foreign(run.chunk_instant(0, seq, start=0.0),
                        f"between-0-{seq}")
            run.foreign(run.chunk_instant(1, seq, start=0.0),
                        f"between-1-{seq}")
        run.sut.issue_query(query(1))
        run.sut.issue_query(query(2))

        def mid_run():
            now = run.loop.now
            run.sut.issue_query(query(4))
            for seq in (0, 2, 40):
                run.foreign(run.chunk_instant(4, seq, start=now),
                            f"between-4-{seq}")
            run.sut.issue_query(query(5))

        run.loop.schedule(0.003, mid_run)

    both(script, MODELS[kind])


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_foreign_event_scheduled_from_inside_a_chunk_callback(kind):
    """From inside a chunk's delivery, an event at a later chunk's
    instant - of the same stream or of another in flight - fires after
    every chunk already scheduled for that instant."""
    def script(run):
        def on_chunk(qid, seq):
            if seq in (0, 1):
                for ahead in (1, 2, 7):
                    run.foreign(run.chunk_instant(qid, seq + ahead),
                                f"inside-{qid}-{seq}+{ahead}")
            if qid == 1 and seq == 0 and 0 in run.starts:
                when = run.chunk_instant(0, 3)
                if when >= run.loop.now:
                    run.foreign(when, "inside-1-at-0:3")

        run.on_chunk = on_chunk
        for qid in (0, 1, 1, 2):
            run.sut.issue_query(query(qid))
        run.issue_at(0.001, 3)

    log = both(script, MODELS[kind])
    assert any(payload == "inside-0-0+1" for _, _, _, payload in log)


def test_the_oracle_is_one_schedule_call_per_chunk():
    """What makes the oracle the oracle: one loop event per chunk."""
    model = StreamModel(seed=5)
    run = Run(PerChunkSUT, model)
    for qid in range(10):
        run.sut.issue_query(query(qid))
    assert run.loop.pending() == sum(
        len(model.plan(qid).chunks) for qid in range(10))
    log = run.finish()
    assert run.fired == sum(1 for entry in log if entry[3][0] == "chunk")
