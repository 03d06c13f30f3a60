"""``NetworkSUT``: the LoadGen-side adapter onto a remote server.

The Network division's defining property is that the *unmodified*
LoadGen measures a SUT that lives across a wire.  ``NetworkSUT``
implements the ordinary :class:`~repro.core.sut.SutBase` contract, so
every scenario driver, referee rule, and validity check applies
unchanged; everything network-specific stays inside this adapter:

* a small **connection pool**, queries issued round-robin across it;
* **per-attempt deadlines** and bounded retries, re-sending under the
  *same* query id so a straggling first answer and a retried second one
  are de-duplicated by the shared attempt engine
  (:class:`~repro.faults.filtering.AttemptSUT`) - the exact machine the
  in-process retry wrapper runs;
* **reconnect with backoff** when a connection drops, with the in-flight
  queries on it retried over surviving connections or reported through
  the failed-query machinery (never a hang);
* **transport timestamps** (client send/receive, server receive/send)
  kept per query for the trace exporter's network spans.

Threading model: socket reader threads never touch SUT state - they hand
frames to the run loop via :meth:`~repro.core.events.EventLoop.post`,
so all bookkeeping happens on the loop thread exactly as in an
in-process SUT.  A frame that arrives once the run has ended is
dropped at that hand-off (the released SUT's loop takes posts and
runs none).  The adapter therefore requires a realtime loop (real
sockets do not speak virtual time; for deterministic experiments use
:mod:`repro.network.simulated`).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..bounds import AT_LEAST_ONE, POSITIVE, check_range
from ..core.events import EventLoop
from ..core.query import Query, QueryFailure, QuerySampleResponse
from ..core.sut import Responder
from ..core.trace import TransportTiming
from ..faults.filtering import Attempt, AttemptSUT
from . import protocol
from .protocol import FrameReader, FrameType, ProtocolError

_RECV_CHUNK = 64 * 1024
_POLL = 0.2


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Accept ``(host, port)`` or ``"host:port"``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    return host, int(port)


@dataclass
class NetworkStats:
    """What the adapter observed during one run."""

    queries_sent: int = 0
    retries: int = 0
    recovered_queries: int = 0
    gave_up_queries: int = 0
    #: Duplicates and post-resolution stragglers swallowed.
    filtered_completions: int = 0
    #: CHUNK frames forwarded to the referee.
    chunks_received: int = 0
    #: Stale, duplicate, or out-of-sequence CHUNK frames dropped.
    filtered_chunks: int = 0
    #: FAIL frames received from the server.
    server_failures: int = 0
    malformed_completions: int = 0
    protocol_errors: int = 0
    connections_lost: int = 0
    reconnects: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def summary(self) -> str:
        return (
            f"sent={self.queries_sent} retries={self.retries} "
            f"recovered={self.recovered_queries} "
            f"gave_up={self.gave_up_queries} "
            f"lost_conns={self.connections_lost} "
            f"reconnects={self.reconnects}"
        )


class _Connection(protocol.Peer):
    """One pooled TCP connection plus its reader thread."""

    _ids = itertools.count(1)

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock)
        #: Everything received on ``sock`` goes through this one parser,
        #: the HELLO exchange included: a partial frame that arrives with
        #: the greeting is still there when the reader thread takes over.
        self.frames = FrameReader()
        self.reader: Optional[threading.Thread] = None


class _Pending(Attempt):
    """Loop-thread state for one in-flight query: ``started`` is its
    first send, ``tries`` the resends so far."""

    #: The pooled connection the current attempt went out on.
    connection: Optional[_Connection] = None
    #: The ISSUE frame, built once at admission; a retry resends it.
    frame = b""


class NetworkSUT(AttemptSUT):
    """Drive a remote :class:`~repro.network.server.InferenceServer`.

    ``address`` is ``(host, port)`` or ``"host:port"``.  The pool is
    opened (and HELLO-exchanged) in :meth:`start_run`, which is untimed -
    connection setup never counts against a query's latency, mirroring
    the untimed LOAD steps of Fig. 3.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        connections: int = 1,
        query_timeout: float = 2.0,
        max_attempts: int = 2,
        reconnect_backoff: float = 0.05,
        name: Optional[str] = None,
    ) -> None:
        host, port = parse_address(address)
        super().__init__(name or f"network[{host}:{port}]")
        check_range("connections", connections, AT_LEAST_ONE)
        check_range("query_timeout", query_timeout, POSITIVE)
        check_range("max_attempts", max_attempts, AT_LEAST_ONE)
        self.address = (host, port)
        self.pool_size = connections
        self.query_timeout = query_timeout
        self.max_attempts = max_attempts
        self.reconnect_backoff = reconnect_backoff
        self.stats = NetworkStats()
        #: Per-query wire timestamps, keyed by query id (for tracing).
        self.transport_records: Dict[int, TransportTiming] = {}
        #: The server's final STATS payload, captured by :meth:`close`.
        self.server_stats: Optional[Dict[str, object]] = None
        self._pool: List[_Connection] = []
        self._rr = 0
        #: (server_recv, server_send, recv_time) of the COMPLETE frame
        #: being delivered; ``_clean`` runs inside that delivery.
        self._wire: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self._stats_event = threading.Event()
        self._hello: Optional[Dict[str, object]] = None

    # -- lifecycle --------------------------------------------------------------

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        if not loop.realtime:
            raise ValueError(
                "NetworkSUT needs a realtime event loop: real sockets "
                "cannot be driven by a virtual clock (use "
                "repro.network.simulated for deterministic runs)"
            )
        super().start_run(loop, responder)
        self.stats = NetworkStats()
        self.transport_records = {}
        for conn in self._pool:  # a client run again: the last run's
            conn.close()         # pool goes (its readers exit with it)
        self._pool = [self._connect() for _ in range(self.pool_size)]
        for conn in self._pool:
            self._start_reader(conn)

    def load_samples(self, indices) -> None:
        """Forward an untimed preload to the server (LOAD frame)."""
        conn = self._pick_connection()
        if conn is not None:
            self._send(conn, protocol.load_frame(indices))

    def close(self, timeout: float = 2.0) -> None:
        """Gracefully drain the session and tear the pool down."""
        if self._closed:
            return
        self._closed = True
        live = [c for c in self._pool if c.alive]
        if live:
            self._stats_event.clear()
            if self._send(live[0], protocol.drain_frame()):
                self._stats_event.wait(timeout)
        for conn in self._pool:
            conn.close()
        for conn in self._pool:
            if conn.reader is not None:
                conn.reader.join(timeout=timeout)
        self._pool = []

    def __enter__(self) -> "NetworkSUT":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- SUT contract -----------------------------------------------------------

    def issue_query(self, query: Query) -> None:
        try:
            frame = protocol.issue_frame(query)
        except TypeError as exc:
            # The wire cannot carry it: this one query fails, with
            # nothing armed, sent or counted.
            self.fail(query, str(exc))
            return
        conn = self._pick_connection()
        if conn is None:
            self.stats.gave_up_queries += 1
            self.fail(query, "no live connection to server")
            return
        # One clock reading serves the admission time and the deadline.
        now = self._loop.clock.now()
        state = self._inflight[query.id] = _Pending(query, now)
        state.connection = conn
        state.frame = frame
        self._send_attempt(state, now)

    # -- issue path (loop thread) -----------------------------------------------

    def _send_attempt(self, state: _Pending,
                      now: Optional[float] = None) -> None:
        self._arm(state, self.query_timeout, now)
        self.stats.queries_sent += 1
        if not self._send(state.connection, state.frame):
            # The write itself failed: this connection is gone.
            self._connection_lost(state.connection)

    def _expired(self, state: _Pending) -> None:
        self._attempt_lost(
            state,
            f"no response within {self.query_timeout}s deadline",
        )

    def _attempt_lost(self, state: _Pending, reason: str) -> None:
        """This attempt is dead; retry on a live connection or give up."""
        conn = self._pick_connection()
        if state.tries + 1 < self.max_attempts and conn is not None:
            state.tries += 1
            state.connection = conn
            self.stats.retries += 1
            self._restart(state)
            self._send_attempt(state)
            return
        self._resolve(state)
        self.stats.gave_up_queries += 1
        self.fail(
            state.query,
            f"{reason} (after {state.tries + 1} attempt(s))",
        )

    def _pick_connection(self) -> Optional[_Connection]:
        live = self._pool
        for conn in live:
            if not conn.alive:  # lost, not yet reaped by _connection_lost
                live = [c for c in live if c.alive]
                break
        if not live:
            return None
        self._rr += 1
        return live[self._rr % len(live)]

    def _send(self, conn: _Connection, frame: bytes) -> bool:
        if conn.send(frame):
            self.stats.bytes_sent += len(frame)
            return True
        return False

    # -- completion path --------------------------------------------------------

    def _on_complete(
        self,
        query_id: int,
        responses: List[QuerySampleResponse],
        server_recv: float,
        server_send: float,
        recv_time: float,
    ) -> None:
        self._wire = (server_recv, server_send, recv_time)
        self._deliver(None, query_id, responses)

    def _absorbed(self, chunk: bool) -> None:
        # Stale, duplicate or out-of-sequence CHUNK frames are dropped,
        # never retried: the terminal COMPLETE still carries the
        # authoritative answer.  A stale terminal frame is typically the
        # first attempt answering after a retry already completed.
        if chunk:
            self.stats.filtered_chunks += 1
        else:
            self.stats.filtered_completions += 1

    def _advanced(self, state: _Pending) -> float:
        # A clean chunk is progress, so it pushes the per-attempt
        # deadline back - a server mid-stream is not one that timed out.
        self.stats.chunks_received += 1
        return self.query_timeout

    def _flawed(self, state: _Pending, source, reason: str,
                failure: Optional[QueryFailure]) -> None:
        if failure is not None:
            self.stats.server_failures += 1
            reason = f"server failed the query: {failure.reason}"
        else:
            self.stats.malformed_completions += 1
            reason = f"malformed completion: {reason}"
        self._attempt_lost(state, reason)

    def _clean(self, state: _Pending, source,
               responses: List[QuerySampleResponse]) -> None:
        self._resolve(state)
        if state.tries > 0:
            self.stats.recovered_queries += 1
        server_recv, server_send, recv_time = self._wire
        self.transport_records[state.query.id] = TransportTiming(
            send_time=state.started,
            recv_time=recv_time,
            server_recv=server_recv,
            server_send=server_send,
        )
        self.complete(state.query, responses)

    def _connection_lost(self, conn: _Connection) -> None:
        """Runs on the loop thread once ``conn`` is known dead."""
        if not conn.alive and conn not in self._pool:
            return  # already handled
        conn.close()
        if conn in self._pool:
            self._pool.remove(conn)
        self.stats.connections_lost += 1
        # Every in-flight query that went out on this connection lost its
        # attempt; retry elsewhere or surface a recorded failure.
        for state in list(self._inflight.values()):
            if state.connection is conn and self._live(state):
                self._attempt_lost(state, "connection to server lost")
        if not self._closed:
            threading.Thread(
                target=self._reconnect_loop,
                name=f"{self.name}-reconnect",
                daemon=True,
            ).start()

    def _reconnect_loop(self) -> None:
        """Background: restore the pool to size, with capped backoff."""
        backoff = self.reconnect_backoff
        while not self._closed and len(self._pool) < self.pool_size:
            time.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            try:
                conn = self._connect()
            except (OSError, ProtocolError):
                continue
            self._start_reader(conn)

            def _register(c=conn):
                if self._closed:
                    c.close()
                    return
                self._pool.append(c)
                self.stats.reconnects += 1

            self._loop.post(_register)
            return

    # -- connection plumbing ----------------------------------------------------

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self.address, timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        try:
            hello = protocol.hello_frame(self.name, "loadgen")
            sock.sendall(hello)
            self.stats.bytes_sent += len(hello)
            # Blocking HELLO exchange: read until the server's greeting.
            frames: List = []
            while not frames:
                data = sock.recv(_RECV_CHUNK)
                if not data:
                    raise ConnectionError(
                        "server closed during HELLO exchange")
                self.stats.bytes_received += len(data)
                frames = conn.frames.feed(data)
            ftype, payload = frames[0]
            if ftype is not FrameType.HELLO:
                raise ProtocolError(f"expected HELLO, got {ftype.name}")
            self._hello = protocol.parse_hello(payload)
            # Whole frames that rode in with the greeting; a partial one
            # stays in conn.frames for the reader thread.
            for ftype, payload in frames[1:]:
                self._dispatch_frame(conn, ftype, payload)
        except BaseException:
            conn.close()
            raise
        sock.settimeout(_POLL)
        return conn

    def _start_reader(self, conn: _Connection) -> None:
        conn.reader = threading.Thread(
            target=lambda: self._reader_loop(conn),
            name=f"{self.name}-reader-{conn.id}",
            daemon=True,
        )
        conn.reader.start()

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            while conn.alive and not self._closed:
                try:
                    data = conn.sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                self.stats.bytes_received += len(data)
                for ftype, payload in conn.frames.feed(data):
                    self._dispatch_frame(conn, ftype, payload)
        except ProtocolError:
            # Corrupt stream from the server: poison this connection.
            self.stats.protocol_errors += 1
        finally:
            was_alive = conn.alive
            conn.alive = False
            if not self._closed and was_alive:
                self._loop.post(lambda: self._connection_lost(conn))

    def _dispatch_frame(self, conn: _Connection, ftype: FrameType, payload) -> None:
        """Reader thread: decode and hand off to the loop thread."""
        if ftype is FrameType.COMPLETE:
            query_id, responses, s_recv, s_send = protocol.parse_complete(payload)
            recv_time = time.monotonic()
            self._loop.post(
                lambda: self._on_complete(
                    query_id, responses, s_recv, s_send, recv_time
                )
            )
        elif ftype is FrameType.CHUNK:
            chunk = protocol.parse_chunk(payload)
            self._loop.post(
                lambda: self._deliver(None, chunk.query_id, chunk))
        elif ftype is FrameType.FAIL:
            query_id, reason = protocol.parse_fail(payload)
            self._loop.post(lambda: self._deliver(
                None, query_id, QueryFailure(reason)))
        elif ftype is FrameType.STATS:
            # Replies to LOAD and DRAIN; handled off-loop because close()
            # waits for the drain reply after the loop has finished.
            if isinstance(payload, dict) and payload.get("drained"):
                self.server_stats = payload
                self._stats_event.set()
        elif ftype is FrameType.HELLO:
            pass  # late duplicate greeting: harmless
        else:
            raise ProtocolError(
                f"server may not send {ftype.name} frames"
            )
