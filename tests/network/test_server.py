"""InferenceServer: sessions, admission, batching, misbehavior containment.

These tests speak the wire protocol directly over raw localhost sockets,
so server behavior is pinned independently of the client adapter.
"""

import socket
import threading
import time

import pytest

from repro.network import protocol
from repro.network.protocol import FrameReader, FrameType
from repro.network.server import InferenceServer, ServerConfig
from repro.sut.echo import EchoSUT

pytestmark = pytest.mark.socket


class RawClient:
    """A hand-rolled protocol speaker for poking the server directly."""

    def __init__(self, address, hello=True):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.reader = FrameReader()
        self.frames = []
        if hello:
            self.send(protocol.hello_frame("raw-test", "loadgen"))
            assert self.recv()[0] is FrameType.HELLO

    def send(self, frame):
        self.sock.sendall(frame)

    def send_bytes(self, blob):
        self.sock.sendall(blob)

    def recv(self, timeout=5.0):
        """Next frame, reading from the socket as needed."""
        if self.frames:
            return self.frames.pop(0)
        self.sock.settimeout(timeout)
        while not self.frames:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self.frames.extend(self.reader.feed(data))
        return self.frames.pop(0)

    def expect_closed(self, timeout=5.0):
        self.sock.settimeout(timeout)
        while True:
            data = self.sock.recv(65536)
            if not data:
                return True
            self.frames.extend(self.reader.feed(data))

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def issue(client, query_id, sample_ids):
    client.send(protocol.encode_frame(FrameType.ISSUE, {
        "query_id": query_id,
        "samples": [[sid, sid + 100] for sid in sample_ids],
    }))


@pytest.fixture
def server():
    config = ServerConfig(port=0, workers=2, max_queue=32, max_batch=4)
    with InferenceServer(lambda: EchoSUT(latency=0.001), config) as srv:
        yield srv


def test_hello_exchange_and_complete_roundtrip(server):
    client = RawClient(server.address)
    issue(client, query_id=5, sample_ids=[1, 2])
    ftype, payload = client.recv()
    assert ftype is FrameType.COMPLETE
    qid, responses, s_recv, s_send = protocol.parse_complete(payload)
    assert qid == 5
    # The echo backend answers each sample with its library index.
    assert {(r.sample_id, r.data) for r in responses} == {(1, 101), (2, 102)}
    assert s_send >= s_recv
    client.close()


def test_first_frame_must_be_hello(server):
    client = RawClient(server.address, hello=False)
    issue(client, query_id=1, sample_ids=[1])
    assert client.expect_closed()
    client.close()
    assert server.stats.protocol_errors >= 1


def test_garbage_bytes_poison_only_that_connection(server):
    bad = RawClient(server.address)
    good = RawClient(server.address)
    bad.send_bytes(b"\xde\xad\xbe\xef" * 4)
    assert bad.expect_closed()
    # The other session keeps serving.
    issue(good, query_id=2, sample_ids=[7])
    assert good.recv()[0] is FrameType.COMPLETE
    assert server.stats.protocol_errors >= 1
    bad.close()
    good.close()


def test_queue_full_is_immediate_fail_not_a_hang():
    config = ServerConfig(port=0, workers=1, max_queue=1, max_batch=1)
    slow = lambda: EchoSUT(latency=0.3)
    with InferenceServer(slow, config) as server:
        client = RawClient(server.address)
        for qid in range(6):
            issue(client, query_id=qid, sample_ids=[qid])
        outcomes = {}
        for _ in range(6):
            ftype, payload = client.recv(timeout=10.0)
            if ftype is FrameType.FAIL:
                qid, reason = protocol.parse_fail(payload)
                outcomes[qid] = reason
            else:
                qid, *_ = protocol.parse_complete(payload)
                outcomes[qid] = "ok"
        rejections = [r for r in outcomes.values() if "queue is full" in r]
        assert rejections, f"expected queue-full FAILs, got {outcomes}"
        assert server.stats.rejected == len(rejections)
        client.close()


def test_paced_overload_is_shed_not_buffered():
    """Admission is the only queue: a request leaves it only when a
    worker takes it, so a paced overload is answered at the backend's
    rate plus what fits in the queue, and the rest is refused at once.
    (Moved to an unbounded dispatch deque by a batcher thread, 36 of
    these 40 were answered.)"""
    latency, workers, max_queue = 0.02, 1, 4
    config = ServerConfig(port=0, workers=workers, max_queue=max_queue,
                          max_batch=1)
    with InferenceServer(lambda: EchoSUT(latency=latency), config) as server:
        client = RawClient(server.address)
        first = time.monotonic()
        for qid in range(40):
            if qid:
                time.sleep(0.002)
            issue(client, query_id=qid, sample_ids=[qid])
        span = time.monotonic() - first
        reasons = []
        for _ in range(40):
            ftype, payload = client.recv(timeout=10.0)
            if ftype is FrameType.FAIL:
                reasons.append(protocol.parse_fail(payload)[1])
            else:
                assert ftype is FrameType.COMPLETE
        answered = 40 - len(reasons)
        assert answered <= max_queue + workers + span / latency + 1, (
            f"{answered} answered over a {span * 1e3:.0f} ms burst")
        assert set(reasons) == {"server request queue is full"}
        assert server.stats.rejected == len(reasons)
        client.close()


def test_a_freed_worker_takes_the_backlog_as_one_batch():
    """Requests wait in the admission queue until a worker is free, and
    that worker takes up to ``max_batch`` of them at once - with no
    window at all.  (A batcher thread that sealed each arrival into its
    own batch behind a busy worker made these eight batches.)"""
    config = ServerConfig(port=0, workers=1, max_queue=16, max_batch=8)
    with InferenceServer(lambda: EchoSUT(latency=0.05), config) as server:
        client = RawClient(server.address)
        issue(client, query_id=0, sample_ids=[0])
        deadline = time.monotonic() + 5.0
        while server.stats.batches < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        for qid in range(1, 8):
            time.sleep(0.005)
            issue(client, query_id=qid, sample_ids=[qid])
        for _ in range(8):
            assert client.recv()[0] is FrameType.COMPLETE
        assert server.stats.batches == 2
        assert server.stats.batched_samples == 8
        client.close()


def test_workers_taking_from_one_queue_lose_no_request_and_no_count():
    """More workers than cores and a tiny switch interval: every request
    is answered exactly once, and the batch ledger the workers share adds
    up to what the backends ran."""
    import os
    import sys

    backends = []

    def backend():
        backends.append(EchoSUT(latency=0.0))
        return backends[-1]

    workers = (os.cpu_count() or 1) + 2
    config = ServerConfig(port=0, workers=workers, max_queue=512,
                          max_batch=4)
    sizes = [1 + qid % 2 for qid in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with InferenceServer(backend, config) as server:
            client = RawClient(server.address)
            first, frames = 0, []
            for qid, size in enumerate(sizes):
                frames.append(protocol.encode_frame(FrameType.ISSUE, {
                    "query_id": qid,
                    "samples": [[s, s] for s in range(first, first + size)]}))
                first += size
            client.send_bytes(b"".join(frames))
            answered = []
            for _ in sizes:
                ftype, payload = client.recv(timeout=10.0)
                assert ftype is FrameType.COMPLETE
                qid, responses, _, _ = protocol.parse_complete(payload)
                assert len(responses) == sizes[qid]
                answered.append(qid)
            client.close()
    finally:
        sys.setswitchinterval(interval)
    stats = server.stats
    assert sorted(answered) == list(range(len(sizes)))
    assert stats.batched_samples == sum(sizes)
    assert stats.batches == sum(b.queries_served for b in backends)
    assert (stats.completed, stats.rejected) == (len(sizes), 0)


def test_edge_batching_merges_requests():
    config = ServerConfig(
        port=0, workers=1, max_queue=64, max_batch=8, batch_window=0.05)
    with InferenceServer(lambda: EchoSUT(latency=0.001), config) as server:
        client = RawClient(server.address)
        for qid in range(8):
            issue(client, query_id=qid, sample_ids=[qid])
        for _ in range(8):
            assert client.recv()[0] is FrameType.COMPLETE
        # The batch window must have merged several one-sample requests.
        assert server.stats.batches < 8
        assert server.stats.batched_samples == 8
        client.close()


def test_drain_replies_with_final_stats(server):
    client = RawClient(server.address)
    issue(client, query_id=1, sample_ids=[3])
    assert client.recv()[0] is FrameType.COMPLETE
    client.send(protocol.drain_frame())
    ftype, payload = client.recv()
    assert ftype is FrameType.STATS
    assert payload.get("drained") is True
    assert payload["completed"] >= 1
    # Post-drain issues are refused, not served.
    issue(client, query_id=2, sample_ids=[4])
    ftype, payload = client.recv()
    assert ftype is FrameType.FAIL
    _, reason = protocol.parse_fail(payload)
    assert "draining" in reason
    client.close()


def test_stats_frame_snapshot(server):
    client = RawClient(server.address)
    issue(client, query_id=1, sample_ids=[1])
    assert client.recv()[0] is FrameType.COMPLETE
    client.send(protocol.stats_frame({}))
    ftype, payload = client.recv()
    assert ftype is FrameType.STATS
    assert payload["completed"] >= 1
    assert payload["connections"] >= 1
    client.close()


def test_client_may_not_send_server_frames(server):
    client = RawClient(server.address)
    client.send(protocol.complete_frame(1, [], 0.0, 0.0))
    assert client.expect_closed()
    assert server.stats.protocol_errors >= 1
    client.close()


def test_misbehaving_backend_fails_queries_not_server():
    from repro.core.sut import SutBase
    from repro.core.query import QuerySampleResponse

    class WrongIdsSUT(SutBase):
        def __init__(self):
            super().__init__("wrong-ids")

        def issue_query(self, query):
            self.complete(query, [
                QuerySampleResponse(s.id + 9999, None) for s in query.samples
            ])

    config = ServerConfig(port=0, workers=1, max_batch=1)
    with InferenceServer(WrongIdsSUT, config) as server:
        client = RawClient(server.address)
        issue(client, query_id=1, sample_ids=[1])
        ftype, payload = client.recv()
        assert ftype is FrameType.FAIL
        _, reason = protocol.parse_fail(payload)
        assert "does not match" in reason or "backend" in reason
        # Server survives to serve a STATS request.
        client.send(protocol.stats_frame({}))
        assert client.recv()[0] is FrameType.STATS
        client.close()


def test_non_encodable_backend_payload_is_failed():
    from repro.core.sut import SutBase
    from repro.core.query import QuerySampleResponse

    class WeirdPayloadSUT(SutBase):
        def __init__(self):
            super().__init__("weird")

        def issue_query(self, query):
            self.complete(query, [
                QuerySampleResponse(s.id, object()) for s in query.samples
            ])

    config = ServerConfig(port=0, workers=1, max_batch=1)
    with InferenceServer(WeirdPayloadSUT, config) as server:
        client = RawClient(server.address)
        issue(client, query_id=1, sample_ids=[1])
        ftype, payload = client.recv()
        assert ftype is FrameType.FAIL
        _, reason = protocol.parse_fail(payload)
        assert "wire-encodable" in reason
        client.close()


@pytest.mark.parametrize("poison", [
    2 ** 70, "np.uint64(2 ** 64 - 1)", "lone \ud800 surrogate",
    "nested"], ids=["int-past-int64", "uint64-max", "surrogate", "depth"])
def test_unencodable_value_fails_its_query_and_spares_the_worker(poison):
    """An answer the codec refuses for its *value* (not its type) used
    to escape as struct.error / UnicodeEncodeError / RecursionError and
    kill the only worker with the request still in flight: the session
    never drained and every later query timed out."""
    import numpy as np

    from repro.core.sut import SutBase
    from repro.core.query import QuerySampleResponse

    if poison == "np.uint64(2 ** 64 - 1)":
        poison = np.uint64(2 ** 64 - 1)
    elif poison == "nested":
        for _ in range(5000):
            poison = [poison]

    class PoisonOnceSUT(SutBase):
        def __init__(self):
            super().__init__("poison-once")
            self.served = 0

        def issue_query(self, query):
            self.served += 1
            data = poison if self.served == 1 else "fine"
            self.complete(query, [
                QuerySampleResponse(s.id, data) for s in query.samples])

    config = ServerConfig(port=0, workers=1, max_batch=1)
    with InferenceServer(PoisonOnceSUT, config) as server:
        client = RawClient(server.address)
        issue(client, query_id=1, sample_ids=[1])
        ftype, payload = client.recv()
        assert ftype is FrameType.FAIL
        query_id, reason = protocol.parse_fail(payload)
        assert query_id == 1 and "wire-encodable" in reason
        # The one worker is still there for the next query ...
        issue(client, query_id=2, sample_ids=[2])
        ftype, payload = client.recv()
        assert ftype is FrameType.COMPLETE
        query_id, responses, _, _ = protocol.parse_complete(payload)
        assert query_id == 2 and responses[0].data == "fine"
        # ... the failure was recorded once, and nothing is left in flight.
        assert (server.stats.failed, server.stats.completed) == (1, 1)
        assert server.drain(timeout=5.0) is True
        client.close()


def test_unencodable_chunk_payload_is_sent_bare_and_spares_the_worker():
    from repro.core.sut import SutBase
    from repro.core.query import QuerySampleResponse, StreamChunk

    class PoisonStreamSUT(SutBase):
        def __init__(self):
            super().__init__("poison-stream")

        def issue_query(self, query):
            self.emit_chunk(query, StreamChunk(
                query_id=query.id, seq=0, token_count=1, last=True,
                data=2 ** 70))
            self.complete(query, [
                QuerySampleResponse(s.id, None) for s in query.samples])

    config = ServerConfig(port=0, workers=1, max_batch=1)
    with InferenceServer(PoisonStreamSUT, config) as server:
        client = RawClient(server.address)
        issue(client, query_id=1, sample_ids=[1])
        ftype, payload = client.recv()
        assert ftype is FrameType.CHUNK
        assert protocol.parse_chunk(payload).data is None
        assert client.recv()[0] is FrameType.COMPLETE
        assert server.drain(timeout=5.0) is True
        client.close()


def test_shared_backend_instance_is_serialized():
    backend = EchoSUT(latency=0.001)
    config = ServerConfig(port=0, workers=3, max_batch=1)
    with InferenceServer(backend, config) as server:
        client = RawClient(server.address)
        for qid in range(10):
            issue(client, query_id=qid, sample_ids=[qid])
        for _ in range(10):
            assert client.recv()[0] is FrameType.COMPLETE
        assert backend.queries_served == 10
        client.close()


# -- stop() teardown regressions (ISSUE 4 satellite) -------------------


def test_stop_joins_every_thread_including_blocked_readers():
    """A session blocked in recv() must not outlive stop(): sessions
    are closed before any join, so the reader wakes immediately and the
    re-snapshotting join loop leaves no server thread alive."""
    # A unique name keeps the thread-liveness check blind to stragglers
    # from other tests' (default-named) servers.
    config = ServerConfig(port=0, workers=2, max_queue=8, max_batch=4,
                          name="stop-join-probe")
    srv = InferenceServer(lambda: EchoSUT(latency=0.001), config)
    srv.start()
    name_prefix = f"{srv.config.name}-"
    clients = [RawClient(srv.address) for _ in range(3)]
    # Give the accept loop time to register and spawn every session.
    deadline = time.monotonic() + 5.0
    while len(srv._sessions) < 3 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert len(srv._sessions) == 3
    srv.stop()
    leftovers = [
        t for t in threading.enumerate()
        if t.name.startswith(name_prefix) and t.is_alive()
    ]
    assert leftovers == []
    assert srv._threads == []
    for client in clients:
        client.close()


def test_a_server_runs_its_workers_the_accept_loop_and_one_per_session():
    """``1 + workers`` threads, plus one reader per session: workers take
    their batches from the admission queue, no batcher thread between."""
    config = ServerConfig(port=0, workers=3, name="thread-count-probe")
    srv = InferenceServer(lambda: EchoSUT(latency=0.001), config)
    srv.start()
    name_prefix = f"{srv.config.name}-"

    def serving_threads():
        return sorted(t.name[len(name_prefix):] for t in threading.enumerate()
                      if t.name.startswith(name_prefix) and t.is_alive())

    clients = []
    try:
        assert serving_threads() == [
            "accept", "worker-0", "worker-1", "worker-2"]
        clients = [RawClient(srv.address) for _ in range(2)]
        deadline = time.monotonic() + 5.0
        while len(srv._sessions) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(serving_threads()) == 1 + 3 + 2
    finally:
        srv.stop()
    assert serving_threads() == []
    for client in clients:
        client.close()


def test_stop_refuses_new_session_threads():
    """_spawn after stop() must not start a thread (the window where a
    freshly accepted connection races the teardown)."""
    config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=4)
    srv = InferenceServer(lambda: EchoSUT(latency=0.001), config)
    srv.start()
    srv.stop()
    assert srv._spawn(lambda: None, "too-late") is False
    assert srv._threads == []


def test_stop_twice_is_idempotent():
    config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=4)
    srv = InferenceServer(lambda: EchoSUT(latency=0.001), config)
    srv.start()
    srv.stop()
    srv.stop()  # second call must be a no-op, not an error


def test_queue_offer_after_close_never_enqueues():
    """put-vs-close: once closed, offer() must refuse and leave the
    queue untouched no matter how the calls interleave."""
    from repro.network.server import _PendingRequest, _RequestQueue

    def request(qid):
        return _PendingRequest(
            session=None, query_id=qid, samples=[], recv_time=0.0)

    q = _RequestQueue(max_queue=64)
    assert q.offer(request(1)) is True
    q.close()
    assert q.offer(request(2)) is False
    assert q.depth == 1  # only the pre-close item remains

    # Racing writers against close: whatever lands after close must be
    # refused, so drained items never include a post-close query id.
    q = _RequestQueue(max_queue=10_000)
    stop_flag = threading.Event()
    accepted = []

    def writer(base):
        i = 0
        while not stop_flag.is_set():
            if q.offer(request(base + i)):
                accepted.append(base + i)
            i += 1

    threads = [
        threading.Thread(target=writer, args=(base,))
        for base in (0, 1_000_000, 2_000_000)
    ]
    for t in threads:
        t.start()
    time.sleep(0.05)
    q.close()
    post_close_probe = q.offer(request(9_999_999))
    stop_flag.set()
    for t in threads:
        t.join(timeout=5.0)
    assert post_close_probe is False
    drained = []
    while True:
        batch = q.take_batch(max_samples=1_000_000, window=0.0)
        if batch is None:
            break
        drained.extend(r.query_id for r in batch)
    # Everything accepted was drained, and nothing else snuck in.
    assert sorted(drained) == sorted(accepted)
