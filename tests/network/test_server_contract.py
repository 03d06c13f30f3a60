"""What the inference server's hand-off from admission queue to worker
must keep, whoever assembles the batches.

Pinned over loopback sockets, against the wire:

* **one assembler at a time** - eight one-sample ISSUEs in one write,
  with two workers, ``max_batch=8`` and a 50 ms window, are one batch of
  eight, and so are one ISSUE and, inside its window, seven more; two
  workers assembling at once would split the second case;
* **batch counts below saturation** - a closed loop is one batch per
  request (a request is never split, an oversized one ships alone) for
  one worker and for two;
* **chunk forwarding** - a single-request batch forwards its stream
  chunks under the client's query id, ahead of COMPLETE; a merged batch
  forwards none;
* **the queue-full FAIL text**, word for word;
* **the STATS frame** - its field names and their order;
* **an abandoned stop** - ``stop(drain=False)`` over a queued backlog on
  a 0.3 s backend returns within about one batch time.
"""

import time

import pytest

from repro.network import protocol
from repro.network.protocol import FrameType
from repro.network.server import InferenceServer, ServerConfig
from repro.streaming import StreamModel, streaming_echo
from repro.sut.echo import EchoSUT

from tests.network.test_server import RawClient, issue

pytestmark = pytest.mark.socket

#: The STATS frame's fields, in order: every ``ServerStats`` field, then
#: the live queue depth.
STATS_FIELDS = [
    "connections", "queries_received", "completed", "failed", "chunks",
    "rejected", "protocol_errors", "batches", "batched_samples",
    "queue_high_water", "loads", "queue_depth",
]

MODEL = StreamModel(
    first_token_delay=0.001, inter_token_delay=0.0002,
    min_tokens=3, max_tokens=6, seed=29)


def issue_burst(client, requests):
    """Every ``(query_id, sample_ids)`` ISSUE in one socket write."""
    client.send_bytes(b"".join(
        protocol.encode_frame(FrameType.ISSUE, {
            "query_id": query_id,
            "samples": [[sid, sid + 100] for sid in sample_ids]})
        for query_id, sample_ids in requests))


def terminal_frames(client, count, timeout=10.0):
    """The next ``count`` COMPLETE/FAIL frames as ``{query_id: reason}``
    (``"ok"`` for a COMPLETE), plus every CHUNK frame seen meanwhile."""
    outcomes, chunks = {}, []
    while len(outcomes) < count:
        ftype, payload = client.recv(timeout=timeout)
        if ftype is FrameType.CHUNK:
            chunks.append(protocol.parse_chunk(payload))
        elif ftype is FrameType.FAIL:
            query_id, reason = protocol.parse_fail(payload)
            outcomes[query_id] = reason
        else:
            assert ftype is FrameType.COMPLETE, ftype
            query_id, *_ = protocol.parse_complete(payload)
            outcomes[query_id] = "ok"
    return outcomes, chunks


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never came true"
        time.sleep(0.002)


def test_one_write_is_one_batch_with_two_workers():
    config = ServerConfig(port=0, workers=2, max_queue=64, max_batch=8,
                          batch_window=0.05)
    with InferenceServer(lambda: EchoSUT(latency=0.001), config) as srv:
        client = RawClient(srv.address)
        issue_burst(client, [(qid, [qid]) for qid in range(8)])
        outcomes, _ = terminal_frames(client, 8)
        assert outcomes == {qid: "ok" for qid in range(8)}
        assert (srv.stats.batches, srv.stats.batched_samples) == (1, 8)
        client.close()


def test_a_window_merges_what_arrives_during_it_with_two_workers():
    """The first request opens the window; the other seven arrive inside
    it while the second worker is idle, and still join the same batch."""
    config = ServerConfig(port=0, workers=2, max_queue=64, max_batch=8,
                          batch_window=0.2)
    with InferenceServer(lambda: EchoSUT(latency=0.001), config) as srv:
        client = RawClient(srv.address)
        issue(client, query_id=0, sample_ids=[0])
        # Offered and taken: the window is open.
        wait_for(lambda: srv._queue.high_water == 1 and srv._queue.depth == 0)
        time.sleep(0.01)
        issue_burst(client, [(qid, [qid]) for qid in range(1, 8)])
        outcomes, _ = terminal_frames(client, 8)
        assert outcomes == {qid: "ok" for qid in range(8)}
        assert (srv.stats.batches, srv.stats.batched_samples) == (1, 8)
        client.close()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("window", [0.0, 0.01])
def test_a_closed_loop_is_one_batch_per_request(workers, window):
    config = ServerConfig(port=0, workers=workers, max_queue=8,
                          max_batch=4, batch_window=window)
    # Two-, three- and one-sample requests merge whole; the six-sample
    # one is past max_batch and ships alone.
    sizes = [1, 2, 3, 6, 4, 1]
    with InferenceServer(lambda: EchoSUT(latency=0.002), config) as srv:
        client = RawClient(srv.address)
        first = 0
        for qid, size in enumerate(sizes):
            issue(client, query_id=qid, sample_ids=range(first, first + size))
            first += size
            assert terminal_frames(client, 1)[0] == {qid: "ok"}
        stats = srv.stats
        assert stats.batches == len(sizes)
        assert stats.batched_samples == sum(sizes)
        assert stats.queue_high_water == 1
        assert (stats.completed, stats.failed, stats.rejected) == (6, 0, 0)
        client.close()


def test_a_single_request_batch_forwards_its_chunks():
    config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=8)
    with InferenceServer(lambda: streaming_echo(latency=0.001, model=MODEL),
                         config) as srv:
        client = RawClient(srv.address)
        forwarded = 0
        # Server batch ids count from 1, and the streaming echo plans
        # each backend query by its id.
        for batch_id, qid in enumerate((40, 41, 42), start=1):
            issue(client, query_id=qid, sample_ids=[qid])
            outcomes, chunks = terminal_frames(client, 1)
            assert outcomes == {qid: "ok"}
            plan = MODEL.plan(batch_id)
            assert [(c.query_id, c.seq, c.token_count, c.last)
                    for c in chunks] == [
                (qid, seq, event.token_count, event.last)
                for seq, event in enumerate(plan.chunks)]
            forwarded += len(plan.chunks)
        assert srv.stats.chunks == forwarded
        client.close()


def test_a_merged_batch_forwards_no_chunks():
    config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=8,
                          batch_window=0.05)
    with InferenceServer(lambda: streaming_echo(latency=0.001, model=MODEL),
                         config) as srv:
        client = RawClient(srv.address)
        issue_burst(client, [(qid, [qid]) for qid in range(4)])
        outcomes, chunks = terminal_frames(client, 4)
        assert outcomes == {qid: "ok" for qid in range(4)}
        assert chunks == []
        assert (srv.stats.batches, srv.stats.chunks) == (1, 0)
        client.close()


def test_queue_full_fail_text():
    config = ServerConfig(port=0, workers=1, max_queue=1, max_batch=1)
    with InferenceServer(lambda: EchoSUT(latency=0.05), config) as srv:
        client = RawClient(srv.address)
        issue_burst(client, [(qid, [qid]) for qid in range(32)])
        outcomes, _ = terminal_frames(client, 32)
        reasons = {r for r in outcomes.values() if r != "ok"}
        assert reasons == {"server request queue is full"}
        rejected = sum(r != "ok" for r in outcomes.values())
        assert srv.stats.rejected == srv.stats.failed == rejected
        assert srv.stats.completed == 32 - rejected
        client.close()


def test_stats_frame_fields_and_order():
    config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=4)
    with InferenceServer(lambda: EchoSUT(latency=0.001), config) as srv:
        client = RawClient(srv.address)
        issue(client, query_id=1, sample_ids=[1, 2])
        assert terminal_frames(client, 1)[0] == {1: "ok"}
        client.send(protocol.stats_frame({}))
        ftype, payload = client.recv()
        assert ftype is FrameType.STATS
        assert list(payload) == STATS_FIELDS
        assert payload["batches"] == 1 and payload["batched_samples"] == 2
        client.send(protocol.drain_frame())
        ftype, payload = client.recv()
        assert ftype is FrameType.STATS
        assert list(payload) == STATS_FIELDS + ["drained"]
        client.close()


def test_stop_without_drain_abandons_the_backlog():
    latency = 0.3
    config = ServerConfig(port=0, workers=1, max_queue=16, max_batch=1)
    srv = InferenceServer(lambda: EchoSUT(latency=latency), config)
    srv.start()
    client = RawClient(srv.address)
    try:
        issue_burst(client, [(qid, [qid]) for qid in range(6)])
        wait_for(lambda: srv.stats.queries_received == 6)
        time.sleep(0.05)  # the worker is inside its first batch
        started = time.monotonic()
        srv.stop(drain=False)
        elapsed = time.monotonic() - started
    finally:
        srv.stop(drain=False)
        client.close()
    # The batch in hand finishes; the five queued behind it do not run.
    assert elapsed < 2 * latency
    assert srv.stats.rejected == 0
