"""Sequence-order restoration for chunks that crossed a lossy transport.

A reordering channel (``SimulatedChannelSUT``; in the real world,
multipath networks or a proxy) can deliver chunk 3 before chunk 2.  The
referee would rightly flag that as an out-of-order stream - but the
transport misordering is not the *SUT's* misbehavior, and a streaming
client normally reassembles before presenting tokens to the user.
:class:`StreamReassembler` is that client-side buffer: it releases
chunks strictly in sequence order, holding early arrivals until the gap
fills, dropping duplicates, and resetting on a stream restart
(``seq == 0`` after progress).

Chunks lost outright (a *dropping* channel) leave a permanent gap: the
buffered tail is never released, the final chunk never reaches the
referee, and the completion is classified as a truncated stream - which
is exactly the verdict a lossy transport deserves.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.query import StreamChunk


class _StreamBuffer:
    __slots__ = ("expected", "held")

    def __init__(self) -> None:
        self.expected = 0
        self.held: Dict[int, StreamChunk] = {}


class StreamReassembler:
    """Per-query in-order release of out-of-order chunk arrivals."""

    def __init__(self) -> None:
        self._buffers: Dict[int, _StreamBuffer] = {}
        #: Duplicate chunks dropped and early chunks held, for tests
        #: and channel stats.
        self.duplicates_dropped = 0
        self.held_peak = 0

    def push(self, query_id: int, chunk: StreamChunk) -> List[StreamChunk]:
        """Accept one arrival; return the chunks now releasable in order."""
        buffer = self._buffers.get(query_id)
        if buffer is None:
            buffer = self._buffers[query_id] = _StreamBuffer()
        if chunk.seq == 0 and buffer.expected > 0:
            # Stream restart: everything held belonged to the old
            # attempt and must not leak into the new one.
            buffer.expected = 0
            buffer.held.clear()
        if chunk.seq < buffer.expected or chunk.seq in buffer.held:
            self.duplicates_dropped += 1
            return []
        buffer.held[chunk.seq] = chunk
        self.held_peak = max(self.held_peak, len(buffer.held))
        released: List[StreamChunk] = []
        while buffer.expected in buffer.held:
            released.append(buffer.held.pop(buffer.expected))
            buffer.expected += 1
        return released

    def finish(self, query_id: int) -> int:
        """The query resolved: discard its buffer, returning how many
        chunks were stranded behind a gap (lost-chunk evidence)."""
        buffer = self._buffers.pop(query_id, None)
        return len(buffer.held) if buffer is not None else 0
