"""A TCP inference server hosting any SUT behind the wire protocol.

:class:`InferenceServer` is the submitter side of the Network division:
it owns the listening socket, a bounded admission queue, and a worker
pool that takes its batches straight from that queue and drives the
hosted backend.  The request path is::

    reader thread --> admission queue --> worker pool
    (per session)     (bounded; full =     (takes a batch, runs
                       immediate FAIL)      the backend, replies)

Design points:

* **Bounded admission.**  A server under overload must shed load, not
  buffer without limit: an ISSUE that finds the queue full is answered
  with an immediate FAIL frame, which the client surfaces through the
  LoadGen's failed-query machinery.  The queue is the only place a
  request waits, so its bound is the backlog's.
* **Dynamic batching at the edge.**  A free worker merges whole queued
  requests (never splitting one) up to ``max_batch`` samples, waiting at
  most ``batch_window`` seconds for stragglers - the same
  latency/throughput trade the paper's server scenario exists to
  measure, now applied at the serving boundary.  One worker assembles at
  a time, so a window merges everything that arrives during it.
* **Per-connection sessions.**  Each connection speaks HELLO first, can
  preload samples (LOAD), issue queries, ask for STATS, and end with a
  graceful DRAIN that flushes its in-flight queries before the final
  STATS reply.
* **Misbehavior containment.**  A protocol violation poisons only its
  own connection: the session is closed, a counter is bumped, and every
  other session keeps serving.  A backend that answers with the wrong
  sample ids produces FAIL frames, not a crashed server.

The hosted backend is any :class:`~repro.core.sut.SystemUnderTest`; a
per-worker :class:`_BackendRunner` drives it to completion on a private
realtime event loop, so backends written for the virtual-time LoadGen
(completion scheduled ``service_time`` in the future) serve real traffic
with that service time realised as wall-clock sleep.
"""

from __future__ import annotations

import collections
import errno
import itertools
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, check_range
from ..core.events import EventLoop, WallClock
from ..core.query import (
    Query, QueryFailure, QuerySample, QuerySampleResponse, StreamChunk,
    new_response,
)
from ..core.sut import SystemUnderTest
from ..metrics import MetricsRegistry, export_ledger, exported
from . import protocol
from .protocol import FrameReader, FrameType, ProtocolError

_RECV_CHUNK = 64 * 1024
_POLL = 0.2


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs for one :class:`InferenceServer`."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the bound address is ``server.address``).
    port: int = 0
    #: Worker threads driving the backend.  More than one requires a
    #: backend *factory* (each worker gets its own instance); a single
    #: shared instance is serialized behind one runner.
    workers: int = 2
    #: Admission-queue bound, in requests; beyond it ISSUEs are FAILed.
    max_queue: int = 256
    #: Edge-batching cap, in samples.
    max_batch: int = 8
    #: How long a worker holds a non-full batch open, seconds.
    batch_window: float = 0.0
    #: Extra bind attempts after a transient port-in-use failure (a
    #: previous server instance still in TIME_WAIT, a slow releaser).
    #: Non-transient failures (permission, bad address) never retry.
    bind_retries: int = 3
    #: Backoff before bind retry ``n``: ``bind_backoff * 2**n`` seconds.
    bind_backoff: float = 0.05
    name: str = "inference-server"

    def __post_init__(self) -> None:
        check_range("workers", self.workers, AT_LEAST_ONE)
        check_range("max_queue", self.max_queue, AT_LEAST_ONE)
        check_range("max_batch", self.max_batch, AT_LEAST_ONE)
        check_range("batch_window", self.batch_window, NON_NEGATIVE)
        check_range("bind_retries", self.bind_retries, NON_NEGATIVE)
        check_range("bind_backoff", self.bind_backoff, NON_NEGATIVE)


class ServerStartupError(RuntimeError):
    """The server could not come up, with a classified ``reason``.

    ``reason`` is one of ``"port-in-use"`` (transient; retried up to
    ``bind_retries`` times before this is raised), ``"permission-denied"``
    (privileged port, no capability), ``"bad-address"`` (the host is not
    local), or ``"bind-failed"`` (anything else) - callers branch on the
    class of failure instead of parsing ``OSError`` strings.
    """

    def __init__(self, reason: str, host: str, port: int,
                 cause: OSError) -> None:
        super().__init__(
            f"cannot start server on {host}:{port} ({reason}): {cause}")
        self.reason = reason
        self.host = host
        self.port = port
        self.cause = cause


def _classify_bind_error(error: OSError) -> str:
    """Map a bind-time ``OSError`` to a :class:`ServerStartupError` reason."""
    if error.errno == errno.EADDRINUSE:
        return "port-in-use"
    if error.errno in (errno.EACCES, errno.EPERM):
        return "permission-denied"
    if error.errno == errno.EADDRNOTAVAIL:
        return "bad-address"
    return "bind-failed"


@dataclass
class ServerStats:
    """Counters one server accumulates across its lifetime; the ones
    that name a ``server_*`` counter are exported as it."""

    connections: int = exported(
        "server_connections_total", "Connections accepted")
    queries_received: int = exported(
        "server_queries_received_total", "ISSUE frames received")
    completed: int = exported(
        "server_queries_completed_total", "Queries answered COMPLETE")
    failed: int = exported(
        "server_queries_failed_total", "Queries answered FAIL")
    chunks: int = exported(
        "server_stream_chunks_total",
        "Stream chunks forwarded ahead of COMPLETE")
    rejected: int = exported(
        "server_queries_rejected_total",
        "ISSUEs shed because the admission queue was full")
    protocol_errors: int = exported(
        "server_protocol_errors_total",
        "Connections poisoned by a protocol violation")
    batches: int = exported(
        "server_batches_total", "Batches dispatched to workers")
    batched_samples: int = 0
    queue_high_water: int = 0
    loads: int = 0

    def snapshot(self) -> Dict[str, object]:
        """Every field by name, in declaration order (the ``STATS``
        frame's payload)."""
        return asdict(self)


class _ServerInstruments:
    """What the server writes to the registry (``docs/observability.md``).

    The event counts are :class:`ServerStats` fields, exported as they
    stand.  Left to write are the two distributions, observed inside the
    critical section that already guards the stats, and worker business:
    busy seconds per worker, and a per-slot flag array summed by a
    callback gauge so worker threads never contend on a shared gauge.
    Queue depth and active sessions are callback gauges pulled from live
    state at collection time.
    """

    def __init__(self, registry: MetricsRegistry,
                 server: "InferenceServer") -> None:
        export_ledger(registry, lambda: server.stats)
        self.batch_size = registry.histogram(
            "server_batch_size_samples",
            "Samples merged into each dispatched batch",
            base=1.0, growth=2.0 ** 0.25, buckets=72).labels()
        self.queue_wait = registry.histogram(
            "server_queue_wait_seconds",
            "Admission-to-dispatch wait of each batched request").labels()
        self.worker_busy = registry.counter(
            "server_worker_busy_seconds_total",
            "Wall seconds each worker spent executing batches",
            labels=("worker",))
        self._busy_flags = [False] * server.config.workers
        registry.gauge(
            "server_queue_depth",
            "Requests waiting in the admission queue",
            fn=lambda: server._queue.depth)
        registry.gauge(
            "server_sessions_active", "Currently connected sessions",
            fn=lambda: len(server._sessions))
        registry.gauge(
            "server_workers_busy", "Workers currently executing a batch",
            fn=lambda: sum(self._busy_flags))

    def worker_busy_child(self, index: int):
        """Pre-resolved busy-seconds counter for worker ``index``."""
        return self.worker_busy.labels(worker=index)

    def set_busy(self, index: int, busy: bool) -> None:
        self._busy_flags[index] = busy


class _BackendRunner:
    """Drives one hosted SUT synchronously on a private realtime loop.

    Backends complete by scheduling events ``service_time`` in the
    future; running the private loop realises that as real elapsed time,
    which is exactly what a network client should observe.
    """

    def __init__(self, sut: SystemUnderTest) -> None:
        self.sut = sut
        self.loop = EventLoop(WallClock())
        self._result: Optional[Tuple[Query, object]] = None
        self._on_chunk: Optional[Callable[[StreamChunk], None]] = None
        self._lock = threading.Lock()
        self.sut.start_run(self.loop, self._capture)

    def _capture(self, query: Query, responses) -> None:
        # Chunks are progress, not the answer: hand them to the caller's
        # sink (if it asked for one) and keep waiting for the terminal
        # completion.
        if isinstance(responses, StreamChunk):
            if self._on_chunk is not None:
                self._on_chunk(responses)
            return
        # Keep the first terminal answer; duplicates from a misbehaving
        # backend are dropped here rather than forwarded over the wire.
        if self._result is None:
            self._result = (query, responses)

    def run(self, query: Query,
            on_chunk: Optional[Callable[[StreamChunk], None]] = None):
        """Execute ``query``; returns a response list or QueryFailure.

        ``on_chunk`` (optional) receives each :class:`StreamChunk` the
        backend emits while the query runs, before the terminal answer
        is returned.
        """
        with self._lock:
            self._result = None
            self._on_chunk = on_chunk
            try:
                self.sut.issue_query(query)
                self.sut.flush()
                self.loop.run()
            finally:
                self._on_chunk = None
            if self._result is None:
                return QueryFailure("backend produced no completion")
            answered, responses = self._result
            if answered.id != query.id:
                return QueryFailure(
                    f"backend answered query {answered.id} "
                    f"instead of {query.id}"
                )
            return responses


@dataclass
class _PendingRequest:
    """One admitted ISSUE, waiting for dispatch."""

    session: "_Session"
    query_id: int
    samples: List[QuerySample]
    recv_time: float

    @property
    def sample_count(self) -> int:
        return len(self.samples)


class _RequestQueue:
    """Bounded FIFO that workers take whole batches from."""

    def __init__(self, max_queue: int) -> None:
        self._items: Deque[_PendingRequest] = collections.deque()
        self._max = max_queue
        self._cond = threading.Condition()
        self._take_lock = threading.Lock()
        self._closed = False
        self.high_water = 0

    def offer(self, request: _PendingRequest) -> bool:
        """Admit ``request`` unless the queue is full or closed."""
        with self._cond:
            if self._closed or len(self._items) >= self._max:
                return False
            self._items.append(request)
            self.high_water = max(self.high_water, len(self._items))
            self._cond.notify()
            return True

    def close(self, discard: bool = False) -> None:
        """Refuse further offers; ``discard`` also drops what is queued."""
        with self._cond:
            self._closed = True
            if discard:
                self._items.clear()
            self._cond.notify_all()

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    def take_batch(
        self, max_samples: int, window: float
    ) -> Optional[List[_PendingRequest]]:
        """Block for the next batch; ``None`` once closed and drained.

        Requests are merged whole, FIFO, up to ``max_samples``; an
        oversized request ships alone.  With a window, the batch is held
        open up to ``window`` seconds hoping to fill.  One caller
        assembles at a time, so concurrent takers never split a window.
        """
        with self._take_lock, self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait(_POLL)
            batch = [self._items.popleft()]
            count = batch[0].sample_count
            deadline = time.monotonic() + window
            while count < max_samples:
                if self._items:
                    nxt = self._items[0]
                    if count + nxt.sample_count > max_samples:
                        break
                    batch.append(self._items.popleft())
                    count += nxt.sample_count
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
            return batch


class _Session(protocol.Peer):
    """Per-connection state: the socket, a send lock, drain tracking."""

    _ids = itertools.count(1)

    def __init__(self, sock: socket.socket, addr) -> None:
        super().__init__(sock)
        self.addr = addr
        self.draining = False
        self.greeted = False
        self.inflight = 0
        self._state_lock = threading.Lock()


class InferenceServer:
    """Serve a hosted backend over TCP to remote LoadGens.

    ``backend`` is either a ready :class:`SystemUnderTest` (served by a
    single serialized runner) or a zero-argument factory producing one
    instance per worker thread.  A LOAD frame is counted and answered;
    backends hold their own sample source and fetch by index.
    """

    def __init__(
        self,
        backend: Union[SystemUnderTest, Callable[[], SystemUnderTest]],
        config: Optional[ServerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.stats = ServerStats()
        self._stats_lock = threading.Lock()
        # A class or other callable is a factory (note a SUT *class*
        # itself passes the runtime Protocol isinstance check, so test
        # for type-ness first); only a ready instance is shared.
        if isinstance(backend, type) or not isinstance(backend, SystemUnderTest):
            self._runners = [
                _BackendRunner(backend()) for _ in range(self.config.workers)
            ]
        else:
            # One shared instance: every worker funnels through the one
            # runner (its lock serializes dispatches).
            self._runners = [_BackendRunner(backend)] * self.config.workers
        self._queue = _RequestQueue(self.config.max_queue)
        self._sample_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._sessions: List[_Session] = []
        self._sessions_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        # Guards _threads *and* the running flag transitions: the accept
        # loop spawns session threads concurrently with stop() joining
        # them, so membership changes and the stop decision must be
        # atomic with respect to each other.
        self._threads_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._running = False
        #: Graceful-drain mode: new ISSUE frames are refused with a
        #: classified reason while in-flight work keeps flowing.
        self._draining = False
        self.address: Optional[Tuple[str, int]] = None
        #: Live telemetry, when a registry was provided (``repro serve``
        #: and ``netbench.run_over_localhost`` wire one through).
        self._m = (
            _ServerInstruments(registry, self) if registry is not None
            else None
        )

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and spin up the serving threads.

        Transient bind failures (port-in-use, typically a predecessor
        in TIME_WAIT) are retried ``config.bind_retries`` times with
        exponential backoff; everything else - and retry exhaustion -
        surfaces as a classified :class:`ServerStartupError` rather
        than a raw ``OSError``.
        """
        if self._running:
            raise RuntimeError("server already running")
        listener = self._bind_listener()
        listener.listen(32)
        listener.settimeout(_POLL)
        self._listener = listener
        self.address = listener.getsockname()
        self._running = True
        self._draining = False
        self._spawn(self._accept_loop, "accept")
        for index in range(self.config.workers):
            self._spawn(lambda i=index: self._worker_loop(i), f"worker-{index}")
        return self.address

    def _bind_listener(self) -> socket.socket:
        host, port = self.config.host, self.config.port
        attempt = 0
        while True:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, port))
                return listener
            except OSError as error:
                listener.close()
                reason = _classify_bind_error(error)
                if (reason != "port-in-use"
                        or attempt >= self.config.bind_retries):
                    raise ServerStartupError(
                        reason, host, port, error) from error
                time.sleep(self.config.bind_backoff * (2 ** attempt))
                attempt += 1

    def __enter__(self) -> "InferenceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def begin_drain(self) -> None:
        """Enter graceful drain: stop accepting work, keep completing.

        New ISSUE frames are refused with ``"server is draining"``;
        everything already admitted flows through the workers as usual.
        Call :meth:`drain` to also wait for the in-flight work, then
        :meth:`stop` to tear down.
        """
        self._draining = True

    def drain(self, timeout: float = 10.0) -> bool:
        """Gracefully drain: refuse new queries, flush in-flight ones.

        Returns ``True`` when the admission queue and every session's
        in-flight count reached zero within ``timeout`` seconds;
        ``False`` if the deadline expired first.
        The server keeps serving STATS/DRAIN frames either way — follow
        with :meth:`stop` to tear down.  This is the SIGTERM path of
        ``repro serve`` (see ``docs/durability.md``).
        """
        self.begin_drain()
        if not self._running:
            return True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._sessions_lock:
                inflight = sum(s.inflight for s in self._sessions)
            if self._queue.depth == 0 and inflight == 0:
                return True
            time.sleep(0.005)
        return False

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Shut down; with ``drain``, :meth:`drain` runs first, so every
        admitted query is answered before its session closes.

        The teardown order makes outliving threads impossible rather
        than merely unlikely: the running flag flips under the thread
        lock (so no new thread starts after it), every session socket is
        closed *before* any join (so no reader stays blocked in
        ``recv``), and the join loop re-snapshots the thread list until
        it is empty -- a session accepted in the race window is closed
        by the accept loop itself (it re-checks the flag under the
        sessions lock) and its thread, if it ever started, is in the
        list the loop joins.
        """
        if not self._running:
            return
        if drain:
            self.drain(timeout)
        with self._threads_lock:
            if not self._running:
                return
            self._running = False
        # Workers finish the batch in hand and stop at the closed queue.
        # An abandoned run drops the backlog rather than working through
        # it at full backend latency: the sessions are about to be
        # closed, so nobody could receive the answers anyway.
        self._queue.close(discard=not drain)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # Close every session before joining anything: a reader blocked
        # in recv() wakes with an error immediately instead of at its
        # poll timeout.  Late registrations are impossible -- the accept
        # loop re-checks the running flag inside this same lock.
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()
        deadline = time.monotonic() + timeout
        while True:
            with self._threads_lock:
                pending = [
                    t for t in self._threads
                    if t.is_alive() and t is not threading.current_thread()
                ]
                if not pending:
                    self._threads = []
                    break
            remaining = deadline - time.monotonic()
            if remaining <= 0:  # pragma: no cover - stuck thread escape
                break
            for thread in pending:
                thread.join(timeout=max(remaining / len(pending), 0.01))
        # Backends owning external resources (e.g. the parallel worker
        # pool) are released once nothing can dispatch to them anymore.
        closed = set()
        for runner in self._runners:
            backend_close = getattr(runner.sut, "close", None)
            if callable(backend_close) and id(runner.sut) not in closed:
                closed.add(id(runner.sut))
                backend_close()

    def _spawn(self, target: Callable[[], None], name: str) -> bool:
        """Start a serving thread; refused once stop() has begun."""
        with self._threads_lock:
            if not self._running:
                return False
            thread = threading.Thread(
                target=target, name=f"{self.config.name}-{name}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            return True

    # -- accept + per-session read ----------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(_POLL)
            session = _Session(sock, addr)
            # Register under the sessions lock with a running re-check:
            # stop() closes the session list under this same lock after
            # flipping the flag, so a session either makes the list (and
            # is closed by stop) or is refused and closed right here.
            with self._sessions_lock:
                if not self._running:
                    session.close()
                    continue
                self._sessions.append(session)
            with self._stats_lock:
                self.stats.connections += 1
            if not self._spawn(lambda s=session: self._session_loop(s),
                               f"session-{session.id}"):
                session.close()
                with self._sessions_lock:
                    if session in self._sessions:
                        self._sessions.remove(session)

    def _session_loop(self, session: _Session) -> None:
        reader = FrameReader()
        try:
            while self._running and session.alive:
                try:
                    data = session.sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break  # peer closed
                for ftype, payload in reader.feed(data):
                    self._handle_frame(session, ftype, payload)
        except ProtocolError:
            # Corrupt stream: count it and poison only this connection.
            with self._stats_lock:
                self.stats.protocol_errors += 1
        finally:
            session.close()
            with self._sessions_lock:
                if session in self._sessions:
                    self._sessions.remove(session)

    def _handle_frame(self, session: _Session, ftype: FrameType, payload) -> None:
        if not session.greeted:
            if ftype is not FrameType.HELLO:
                raise ProtocolError(
                    f"first frame must be HELLO, got {ftype.name}"
                )
            protocol.parse_hello(payload)
            session.greeted = True
            session.send(protocol.hello_frame(self.config.name, "server"))
            return
        if ftype is FrameType.ISSUE:
            self._handle_issue(session, payload)
        elif ftype is FrameType.LOAD:
            indices = protocol.parse_load(payload)
            with self._stats_lock:
                self.stats.loads += 1
            session.send(protocol.stats_frame({"loaded": len(indices)}))
        elif ftype is FrameType.STATS:
            session.send(protocol.stats_frame(self._stats_snapshot()))
        elif ftype is FrameType.DRAIN:
            session.draining = True
            self._maybe_finish_drain(session)
        elif ftype is FrameType.HELLO:
            raise ProtocolError("duplicate HELLO")
        else:
            # COMPLETE/FAIL are server->client frames; receiving one is
            # a role violation.
            raise ProtocolError(
                f"client may not send {ftype.name} frames"
            )

    def _handle_issue(self, session: _Session, payload) -> None:
        query_id, samples = protocol.parse_issue(payload)
        with self._stats_lock:
            self.stats.queries_received += 1
        if session.draining:
            self._send_fail(session, query_id, "session is draining")
            return
        if self._draining:
            self._send_fail(session, query_id, "server is draining")
            return
        if not self._running:
            self._send_fail(session, query_id, "server is shutting down")
            return
        request = _PendingRequest(
            session=session,
            query_id=query_id,
            samples=samples,
            recv_time=time.monotonic(),
        )
        with session._state_lock:
            session.inflight += 1
        if not self._queue.offer(request):
            with session._state_lock:
                session.inflight -= 1
            with self._stats_lock:
                self.stats.rejected += 1
            self._send_fail(session, query_id, "server request queue is full")

    # -- batching + dispatch ----------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        runner = self._runners[index]
        busy_seconds = (
            self._m.worker_busy_child(index) if self._m else None
        )
        while True:
            batch = self._queue.take_batch(
                self.config.max_batch, self.config.batch_window
            )
            if batch is None:
                return  # closed, and nothing left to take
            samples = sum(r.sample_count for r in batch)
            with self._stats_lock:
                self.stats.batches += 1
                self.stats.batched_samples += samples
                self.stats.queue_high_water = self._queue.high_water
                if self._m:
                    self._m.batch_size.observe(samples)
                    taken = time.monotonic()
                    for request in batch:
                        self._m.queue_wait.observe(taken - request.recv_time)
            if busy_seconds is None:
                self._execute_batch(runner, batch)
                continue
            self._m.set_busy(index, True)
            started = time.monotonic()
            try:
                self._execute_batch(runner, batch)
            finally:
                busy_seconds.inc(time.monotonic() - started)
                self._m.set_busy(index, False)

    def _execute_batch(
        self, runner: _BackendRunner, batch: List[_PendingRequest]
    ) -> None:
        # Remap client sample ids (unique only per connection) onto a
        # server-wide id space, remembering the way back.
        remap: Dict[int, Tuple[_PendingRequest, int]] = {}
        merged: List[QuerySample] = []
        for request in batch:
            for sample in request.samples:
                internal = next(self._sample_ids)
                remap[internal] = (request, sample.id)
                merged.append(QuerySample(id=internal, index=sample.index))
        query = Query(
            id=next(self._batch_ids),
            samples=tuple(merged),
            issue_time=time.monotonic(),
            contiguous=False,
        )
        # Chunks are forwarded live only for single-request batches: a
        # merged batch runs as one backend query, so its chunks cannot
        # be attributed to any one client request and are dropped.
        on_chunk = None
        if len(batch) == 1:
            sole = batch[0]
            on_chunk = lambda chunk: self._send_chunk(sole, chunk)
        try:
            outcome = runner.run(query, on_chunk=on_chunk)
        except Exception as exc:  # a crashing backend fails the batch
            outcome = QueryFailure(f"backend raised {exc!r}")
        if isinstance(outcome, QueryFailure):
            for request in batch:
                self._send_fail(request.session, request.query_id,
                                outcome.reason)
                self._request_done(request.session)
            return
        grouped: Dict[int, List[QuerySampleResponse]] = {
            request.query_id: [] for request in batch
        }
        unknown = 0
        for response in outcome:
            mapped = remap.get(response.sample_id)
            if mapped is None:
                unknown += 1
                continue
            request, original_id = mapped
            grouped[request.query_id].append(
                new_response((original_id, response.data)))
        for request in batch:
            responses = grouped[request.query_id]
            if unknown or len(responses) != request.sample_count:
                self._send_fail(
                    request.session, request.query_id,
                    "backend response set does not match the request "
                    f"({len(responses)}/{request.sample_count} samples"
                    f"{', stray ids' if unknown else ''})",
                )
                self._request_done(request.session)
                continue
            self._send_complete(request, responses)

    # -- replies ----------------------------------------------------------------

    def _send_chunk(self, request: _PendingRequest,
                    chunk: StreamChunk) -> None:
        """Forward one stream chunk to the client, under its own id.

        Chunks are not terminal: no ``_request_done``, and a chunk whose
        payload is not wire-encodable is resent without the payload
        rather than failing the query - the terminal COMPLETE carries
        the authoritative answer.
        """
        try:
            frame = protocol.chunk_frame(
                request.query_id, chunk.seq, chunk.token_count,
                chunk.last, chunk.data,
            )
        except TypeError:
            frame = protocol.chunk_frame(
                request.query_id, chunk.seq, chunk.token_count,
                chunk.last, None,
            )
        with self._stats_lock:
            self.stats.chunks += 1
        request.session.send(frame)

    def _send_complete(
        self, request: _PendingRequest, responses: List[QuerySampleResponse]
    ) -> None:
        try:
            frame = protocol.complete_frame(
                request.query_id, responses,
                server_recv=request.recv_time,
                server_send=time.monotonic(),
            )
        except TypeError as exc:
            # Non-encodable backend output is an honest failure, not a
            # silently mangled payload.
            self._send_fail(
                request.session, request.query_id,
                f"response payload is not wire-encodable: {exc}",
            )
            self._request_done(request.session)
            return
        # Count before sending: a client that reads the COMPLETE frame
        # and immediately asks for STATS must see its query counted.
        with self._stats_lock:
            self.stats.completed += 1
        request.session.send(frame)
        self._request_done(request.session)

    def _send_fail(self, session: _Session, query_id: int, reason: str) -> None:
        # Same ordering as _send_complete: counted, then visible.
        with self._stats_lock:
            self.stats.failed += 1
        session.send(protocol.fail_frame(query_id, reason))

    def _request_done(self, session: _Session) -> None:
        with session._state_lock:
            session.inflight -= 1
        self._maybe_finish_drain(session)

    def _maybe_finish_drain(self, session: _Session) -> None:
        if not session.draining:
            return
        with session._state_lock:
            if session.inflight > 0:
                return
        payload = dict(self._stats_snapshot())
        payload["drained"] = True
        session.send(protocol.stats_frame(payload))

    def _stats_snapshot(self) -> Dict[str, object]:
        with self._stats_lock:
            snapshot = self.stats.snapshot()
        snapshot["queue_depth"] = self._queue.depth
        return snapshot
