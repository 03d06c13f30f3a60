"""The streaming compat shim: wrap any SUT, stream its answer as chunks.

:class:`StreamingSUT` sits between the LoadGen (or any wrapper stack)
and an inner SUT.  Queries pass through unchanged; when the inner SUT
completes one, the wrapper builds the query's seeded
:class:`~repro.streaming.model.StreamPlan` as chunks, all at once, and
replays them - one train on the run's event loop, firing once per
chunk - and delivers the original response list right after the final
chunk, from the same firing.  Failures and chunks already produced by
the inner SUT pass straight through, so streaming wrappers nest.

Because chunks ride the normal responder channel, everything downstream
(retry wrappers, the TCP server, the fleet) needs no special casing to
*tolerate* streams; they only need extra code to *forward* them, which
is exactly what the attempt engine's chunk screen
(``repro.faults.filtering.AttemptSUT``) provides.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter
from typing import List, Optional

from ..core.events import EventLoop
from ..core.query import (Query, QueryFailure, QuerySampleResponse,
                          StreamChunk, new_chunk)
from ..core.sut import Responder, SutBase, SystemUnderTest
from .model import StreamModel, _chunk_tails

#: ``ChunkEvent.offset`` read in C.
_OFFSET = itemgetter(0)


class _StreamReplay:
    """One stream being replayed: the callback of its train, which fires
    once per chunk.  The stream's chunks are built before its first
    firing; each firing delivers the one the cursor is on, and the final
    one also delivers the terminal completion, so nothing can run
    between the last chunk and the completion.

    A class, not a closure: it lives in this module (the benchmark's
    tracer attributes loop events by the callback's module) and its repr
    is free of object addresses (``RunAbortedError.origin`` falls back to
    it, and a verdict must not differ between same-seed runs).
    """

    __slots__ = ("sut", "query", "chunks", "responses", "seq")

    def __init__(self, sut: "StreamingSUT", query: Query,
                 chunks: List[StreamChunk],
                 responses: List[QuerySampleResponse]) -> None:
        self.sut = sut
        self.query = query
        self.chunks = chunks
        self.responses = responses
        #: The chunk the next firing delivers.
        self.seq = 0

    def __call__(self) -> None:
        seq, query, respond = self.seq, self.query, self.sut._responder
        chunk = self.chunks[seq]
        respond(query, chunk)
        if chunk.last:
            respond(query, self.responses)
        # Only now: a delivery that raised is still the one repr names.
        self.seq = seq + 1

    def __repr__(self) -> str:
        return f"<stream chunk {self.seq} of query {self.query.id}>"


class StreamingSUT(SutBase):
    """Wraps ``inner`` and streams each of its answers as token chunks."""

    def __init__(
        self,
        inner: SystemUnderTest,
        model: Optional[StreamModel] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"streaming({inner.name})")
        self.inner = inner
        self.inners = (inner,)
        self.model = model if model is not None else StreamModel()

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.inner.start_run(loop, self._on_inner_completion)

    def issue_query(self, query: Query) -> None:
        self.inner.issue_query(query)

    # -- inner completions become streams --------------------------------------

    def _on_inner_completion(self, query: Query, responses) -> None:
        # A plain list is what the hot path delivers; the exact type
        # settles it without a call.
        if type(responses) is not list and isinstance(
                responses, (QueryFailure, StreamChunk)):
            # Failures pass through; an already-streaming inner SUT's
            # chunks do too (nested streaming wrappers compose).
            self._responder(query, responses)
            return
        self._begin_stream(query, list(responses))

    def _begin_stream(
        self, query: Query, responses: List[QuerySampleResponse]
    ) -> None:
        model = self.model
        plan = model.plan(query.id)
        # Every chunk of the stream at once, in C: the query's id in
        # front of each of the plan's cached (seq, tokens, last, data).
        chunks = list(map(new_chunk, map(
            add, repeat((query.id,)),
            _chunk_tails(model.first_token_delay, model.inter_token_delay,
                         plan.token_count))))
        loop = self._loop
        start = loop.clock.now()
        # One train, one firing per chunk in plan order: the firings keep
        # the sequence numbers, and so the place among same-instant
        # events, that a schedule call per chunk would give them.
        loop.schedule_train(
            list(map(add, repeat(start), map(_OFFSET, plan.chunks))),
            _StreamReplay(self, query, chunks, responses))


def streaming_echo(
    latency: float = 0.0,
    model: Optional[StreamModel] = None,
    name: str = "streaming-echo",
) -> StreamingSUT:
    """An EchoSUT answering through a streaming shim - the reference
    streaming backend used by tests, ``repro serve``, and the CLI."""
    from ..sut.echo import EchoSUT

    return StreamingSUT(EchoSUT(latency=latency), model=model, name=name)
