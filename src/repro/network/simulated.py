"""A virtual-time network channel for deterministic Network-division runs.

Real sockets cannot be driven by a :class:`~repro.core.events.VirtualClock`,
so experiments on network sensitivity (how does P99 latency degrade as
the wire slows down?) would be stuck with slow, noisy wall-clock runs.
:class:`SimulatedChannelSUT` closes that gap: it wraps any in-process
SUT and imposes a parameterised channel - propagation latency, jitter,
loss, reordering - entirely in virtual time, seeded and reproducible.

Fidelity points:

* **Real frame sizes.**  The bytes each direction carries are the byte
  length of the *actual* wire encoding
  (:func:`repro.network.protocol.issue_frame` / ``complete_frame``),
  not a guess, so the byte counts match what the TCP path would send.
* **Loss is silent.**  A dropped query or completion simply never
  arrives - recovery is the job of whatever sits above (compose with
  :class:`~repro.faults.resilient.ResilientSUT`, whose deadlines run on
  the same virtual clock), mirroring how a real client recovers from a
  lossy network.
* **Composability.**  The channel is itself a SUT, so it stacks with the
  PR-1 fault injectors: ``Resilient(Channel(Faulty(backend)))`` models a
  flaky backend behind a bad network, all deterministic.

Per-query :class:`~repro.core.trace.TransportTiming` records are kept in
``transport_records`` with the same semantics as the real client's, so
the trace exporter draws identical network spans for simulated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

import numpy as np

from ..bounds import NON_NEGATIVE, UNIT, check_range
from ..core.events import EventLoop
from ..core.query import Query, QueryFailure, StreamChunk
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..core.trace import TransportTiming
from ..streaming.reassembly import StreamReassembler
from . import protocol

#: Seconds a reordered frame is held back at most.
REORDER_SPREAD = 0.002


@dataclass(frozen=True)
class ChannelModel:
    """Parameters of one simulated bidirectional channel."""

    #: One-way propagation delay, seconds, each direction.
    latency: float = 0.001
    #: Mean of an exponential jitter term added per frame (0 = none).
    jitter: float = 0.0
    #: Probability a frame (either direction) silently vanishes.
    drop_rate: float = 0.0
    #: Probability a frame is held back an extra
    #: uniform(0, :data:`REORDER_SPREAD`) seconds, letting later frames
    #: overtake it.
    reorder_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("latency", self.latency, NON_NEGATIVE)
        check_range("jitter", self.jitter, NON_NEGATIVE)
        check_range("drop_rate", self.drop_rate, UNIT)
        check_range("reorder_rate", self.reorder_rate, UNIT)


@dataclass
class ChannelStats:
    """What the channel did to one run's traffic."""

    queries_forwarded: int = 0
    queries_dropped: int = 0
    completions_forwarded: int = 0
    completions_dropped: int = 0
    chunks_forwarded: int = 0
    chunks_dropped: int = 0
    #: Chunks stuck behind a lost one when their query resolved.
    chunks_stranded: int = 0
    reordered_frames: int = 0
    bytes_forward: int = 0
    bytes_reverse: int = 0


class SimulatedChannelSUT(SutBase):
    """Impose a :class:`ChannelModel` between the LoadGen and ``inner``.

    Stream chunks pass a client-side :class:`StreamReassembler`, as a
    real streaming client's do: the referee sees each stream in order,
    and a query's completion waits for its chunks still on the wire.
    Deterministic under a virtual clock: all randomness comes from one
    seeded generator reset at :meth:`start_run`, and all delays are
    event-loop schedules.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        model: Optional[ChannelModel] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"channel[{inner.name}]")
        self.inner = inner
        self.inners = (inner,)
        self.model = model if model is not None else ChannelModel()
        self.stats = ChannelStats()
        self.transport_records: Dict[int, TransportTiming] = {}
        self._rng = np.random.default_rng(self.model.seed)
        self._inner_recv: Dict[int, float] = {}
        self._send_times: Dict[int, float] = {}
        self._last_delivery = 0.0
        self._reassembler = StreamReassembler()
        self._chunks_in_flight: Dict[int, int] = {}
        self._held_completions: Dict[int, Callable[[], None]] = {}

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = ChannelStats()
        self.transport_records = {}
        self._rng = np.random.default_rng(self.model.seed)
        self._inner_recv = {}
        self._send_times = {}
        self._last_delivery = loop.now
        self._reassembler = StreamReassembler()
        self._chunks_in_flight = {}
        self._held_completions = {}
        self.inner.start_run(loop, self._on_inner_completion)

    # -- forward direction ------------------------------------------------------

    def issue_query(self, query: Query) -> None:
        try:
            size = len(protocol.issue_frame(query))
        except TypeError as exc:
            # Not wire-encodable: it never goes on the wire, and the
            # query fails here as the real client fails it.
            self.fail(query, str(exc))
            return
        self.stats.bytes_forward += size
        if self._rng.random() < self.model.drop_rate:
            self.stats.queries_dropped += 1
            return  # vanishes; recovery is the layer above's job
        deliver_at = self._transit()
        self.stats.queries_forwarded += 1
        send_time = self.loop.now

        def _deliver() -> None:
            self._inner_recv[query.id] = self.loop.now
            self.transport_records.pop(query.id, None)
            self._send_times[query.id] = send_time
            self.inner.issue_query(query)

        self._schedule_delivery(deliver_at, _deliver)

    def flush(self) -> None:
        # The flush hint must not overtake queries still "on the wire":
        # deliver it after everything already scheduled has landed.
        deliver_at = max(
            self.loop.now + self.model.latency, self._last_delivery
        )
        self.loop.schedule(deliver_at, self.inner.flush)

    # -- reverse direction ------------------------------------------------------

    def _on_inner_completion(self, query: Query, responses) -> None:
        if isinstance(responses, StreamChunk):
            self._transit_chunk(query, responses)
            return
        if isinstance(responses, QueryFailure):
            size = len(protocol.fail_frame(query.id, responses.reason))
        else:
            try:
                size = len(protocol.complete_frame(
                    query.id, responses, server_recv=0.0, server_send=0.0
                ))
            except TypeError:
                # Not wire-encodable; a real server would FAIL it.  Use
                # the failure frame's size and forward the payload as-is
                # so the referee still sees the backend's answer shape.
                size = len(protocol.fail_frame(
                    query.id, "response payload not wire-encodable"
                ))
        self.stats.bytes_reverse += size
        if self._rng.random() < self.model.drop_rate:
            self.stats.completions_dropped += 1
            return
        server_recv = self._inner_recv.pop(query.id, self.loop.now)
        server_send = self.loop.now
        deliver_at = self._transit()
        self.stats.completions_forwarded += 1
        self._schedule_delivery(deliver_at, partial(
            self._deliver_completion, query, responses, server_recv,
            server_send))

    def _deliver_completion(self, query: Query, responses,
                            server_recv: float, server_send: float) -> None:
        # The terminal frame must not overtake this query's chunks
        # still on the wire (per-flow ordering, as TCP would give us);
        # hold it until the last of them lands.  Chunks that were
        # *dropped* never went on the wire, so a lossy stream still
        # resolves - as a truncated stream.  (A method, not a closure:
        # a closure that holds itself is a cycle per query.)
        if self._chunks_in_flight.get(query.id, 0) > 0:
            self._held_completions[query.id] = partial(
                self._deliver_completion, query, responses, server_recv,
                server_send)
            return
        self._held_completions.pop(query.id, None)
        self.stats.chunks_stranded += self._reassembler.finish(query.id)
        self.transport_records[query.id] = TransportTiming(
            send_time=self._send_times.pop(query.id, server_recv),
            recv_time=self.loop.now,
            server_recv=server_recv,
            server_send=server_send,
        )
        self._responder(query, responses)

    def _transit_chunk(self, query: Query, chunk: StreamChunk) -> None:
        """Carry one stream chunk over the reverse link."""
        size = len(protocol.chunk_frame(
            query.id, chunk.seq, chunk.token_count, chunk.last, chunk.data
        ))
        self.stats.bytes_reverse += size
        if self._rng.random() < self.model.drop_rate:
            self.stats.chunks_dropped += 1
            return
        deliver_at = self._transit()
        self.stats.chunks_forwarded += 1
        self._chunks_in_flight[query.id] = \
            self._chunks_in_flight.get(query.id, 0) + 1

        def _deliver() -> None:
            remaining = self._chunks_in_flight.get(query.id, 1) - 1
            if remaining <= 0:
                self._chunks_in_flight.pop(query.id, None)
            else:
                self._chunks_in_flight[query.id] = remaining
            for released in self._reassembler.push(query.id, chunk):
                self._responder(query, released)
            if remaining <= 0:
                held = self._held_completions.pop(query.id, None)
                if held is not None:
                    held()

        self._schedule_delivery(deliver_at, _deliver)

    # -- shared plumbing --------------------------------------------------------

    def _transit(self) -> float:
        """When a frame going on the wire now is delivered."""
        jitter = 0.0
        if self.model.jitter > 0:
            jitter = float(self._rng.exponential(self.model.jitter))
        deliver_at = self.loop.now + self.model.latency + jitter
        if (
            self.model.reorder_rate > 0
            and self._rng.random() < self.model.reorder_rate
        ):
            deliver_at += float(self._rng.uniform(0, REORDER_SPREAD))
            self.stats.reordered_frames += 1
        return deliver_at

    def _schedule_delivery(self, deliver_at: float, callback) -> None:
        self._last_delivery = max(self._last_delivery, deliver_at)
        self.loop.schedule(deliver_at, callback)
