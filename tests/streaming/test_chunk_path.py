"""The streamed-chunk fast path keeps the slow path's behaviour: the
same plans bit for bit, one loop event per chunk, the completion riding
the final chunk's event, and abort verdicts free of object addresses."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import EventLoop, VirtualClock
from repro.core.query import Query, QuerySample, StreamChunk
from repro.core.sut import SutBase
from repro.streaming import StreamModel, StreamingSUT
from repro.streaming.model import ChunkEvent, StreamPlan
from repro.sut.echo import EchoSUT

pytestmark = pytest.mark.streaming


def reference_plan(model: StreamModel, query_id: int) -> StreamPlan:
    """``StreamModel.plan`` as it was before the chunk-path rewrite,
    kept as the specification of every draw and every float sum."""
    rng = np.random.default_rng(
        np.random.SeedSequence((model.seed, query_id, 0x57EA4)))
    tokens = int(rng.integers(model.min_tokens, model.max_tokens + 1))
    chunks = []
    offset = 0.0
    emitted = 0
    seq = 0
    while emitted < tokens:
        delay = (model.first_token_delay if seq == 0
                 else model.inter_token_delay)
        offset += max(0.0, delay)
        emitted += 1
        chunks.append(ChunkEvent(offset=offset, token_count=1,
                                 last=emitted >= tokens))
        seq += 1
    return StreamPlan(token_count=tokens, chunks=tuple(chunks))


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(min_tokens=1, max_tokens=1),
    dict(first_token_delay=0.0),
    dict(inter_token_delay=0.0),
    dict(first_token_delay=0.001, inter_token_delay=0.001),
    dict(min_tokens=48, max_tokens=64),
], ids=["default", "one-token", "first-at-once", "zero-gap", "lockstep",
        "long"])
def test_plans_equal_the_reference_bit_for_bit(kwargs):
    model = StreamModel(seed=11, **kwargs)
    for query_id in range(200):
        plan = model.plan(query_id)
        assert plan == reference_plan(model, query_id)
        assert all(type(chunk) is ChunkEvent for chunk in plan.chunks)


def test_interleaved_models_plan_like_the_reference_and_stay_values():
    """Models asked in turn for the same ids share nothing they should
    not - two that differ only in their delays draw the same token
    counts - and planning leaves a
    model the frozen value it was: same ``==``, hash, repr, ``replace``
    and pickle, nothing hung on the instance."""
    fast = StreamModel(seed=11)
    slow = StreamModel(seed=11, first_token_delay=0.004,
                       inter_token_delay=0.001)
    models = (fast, slow)

    def as_values():
        return [(dataclasses.asdict(m), dict(vars(m)), hash(m), repr(m),
                 pickle.dumps(m), dataclasses.replace(m, seed=12))
                for m in models]

    before = as_values()
    for query_id in range(200):
        for model in models:
            plan = model.plan(query_id)
            assert plan == reference_plan(model, query_id)
            assert type(plan) is StreamPlan
            assert all(type(chunk) is ChunkEvent for chunk in plan.chunks)
            assert all(type(chunk.offset) is float for chunk in plan.chunks)
    assert as_values() == before
    assert len({fast, slow, StreamModel(seed=11)}) == 2
    assert [f.name for f in dataclasses.fields(StreamModel)] == [
        "first_token_delay", "inter_token_delay", "min_tokens",
        "max_tokens", "seed"]
    for model in models:
        assert vars(model) == dataclasses.asdict(model)
        thawed = pickle.loads(pickle.dumps(model))
        assert thawed == model and thawed is not model
        assert thawed.plan(3) == reference_plan(model, 3)
        slower = dataclasses.replace(model, inter_token_delay=0.002)
        assert slower.plan(3) == reference_plan(slower, 3)
        assert slower.plan(3) != model.plan(3)


def make_query(qid):
    return Query(id=qid, samples=(QuerySample(id=100 + qid, index=qid),))


@pytest.mark.parametrize("kwargs", [
    dict(first_token_delay=0.0, inter_token_delay=0.0),
    dict(min_tokens=1, max_tokens=1),
    dict(),
    dict(inter_token_delay=0.0),
    dict(min_tokens=48, max_tokens=64),
], ids=["one-instant", "one-token", "default", "zero-gap", "long"])
def test_each_stream_replays_in_plan_order_one_chunk_per_event(kwargs):
    """Seqs 0..n-1 in order, ``last`` on the final chunk only, the
    completion from the final chunk's own event - also when every chunk
    of a stream falls on one instant, and when one query id streams
    twice back to back (a retry's second answer)."""
    model = StreamModel(seed=5, **kwargs)
    sut = StreamingSUT(EchoSUT(latency=0.0), model=model)
    loop = EventLoop(VirtualClock())
    fired = [0]
    schedule = loop.schedule

    def counting(when, callback):
        def event():
            fired[0] += 1
            callback()
        return schedule(when, event)

    loop.schedule = counting
    delivered = []
    sut.start_run(loop, lambda q, r: delivered.append(
        (fired[0], loop.now, q.id, r)))
    issued = [make_query(qid) for qid in (0, 1, 2, 3, 3, 4)]
    for query in issued:
        sut.issue_query(query)  # EchoSUT(latency=0) answers inside
    loop.run()
    assert loop.pending() == 0

    # One event per planned chunk; events of one instant fire in the
    # order they were scheduled: stream by stream, chunk by chunk.
    planned = []
    for query in issued:
        chunks = model.plan(query.id).chunks
        for seq, chunk in enumerate(chunks):
            planned.append((chunk.offset, len(planned), query.id, seq,
                            chunk.token_count, seq == len(chunks) - 1))
    planned.sort()
    heard = iter(delivered)
    for event, (when, _, qid, seq, tokens, last) in enumerate(planned, 1):
        fired_in, at, heard_qid, chunk = next(heard)
        assert (fired_in, at, heard_qid) == (event, when, qid)
        assert type(chunk) is StreamChunk
        assert (chunk.query_id, chunk.seq, chunk.token_count, chunk.last) \
            == (qid, seq, tokens, last)
        if last:
            fired_in, at, heard_qid, responses = next(heard)
            assert (fired_in, at, heard_qid) == (event, when, qid)
            assert type(responses) is list
            assert [r.sample_id for r in responses] == [100 + qid]
    assert next(heard, None) is None
    assert fired[0] == len(planned)


def test_one_event_per_chunk_and_the_completion_rides_the_last():
    model = StreamModel(seed=9)
    sut = StreamingSUT(EchoSUT(latency=0.0), model=model)
    loop = EventLoop(VirtualClock())
    scheduled, fired = [], []
    schedule = loop.schedule

    def counting(when, callback):
        scheduled.append(callback)

        def event():
            fired.append(callback)
            callback()
        return schedule(when, event)

    loop.schedule = counting
    delivered = []
    sut.start_run(loop, lambda q, r: delivered.append((loop.now, q.id, r)))
    queries = [make_query(qid) for qid in range(25)]
    for query in queries:
        sut.issue_query(query)
    planned = sum(len(model.plan(q.id).chunks) for q in queries)
    assert loop.pending() == planned  # a train counts its every firing
    loop.run()

    plans = {q.id: model.plan(q.id) for q in queries}
    # EchoSUT(latency=0) completes inside issue_query, so every event on
    # the loop is the streaming shim's: one schedule call per stream (its
    # train), one firing per chunk, none on top.
    assert len(scheduled) == len(queries)
    assert len(fired) == planned
    assert {type(c).__module__ for c in fired} == {"repro.streaming.sut"}
    assert loop.pending() == 0
    for query in queries:
        mine = [(t, r) for t, qid, r in delivered if qid == query.id]
        chunks, (done_at, done) = mine[:-1], mine[-1]
        assert [r.seq for _, r in chunks] == list(range(len(chunks)))
        assert [t for t, _ in chunks] == \
            [c.offset for c in plans[query.id].chunks]
        assert chunks[-1][1].last
        assert isinstance(done, list) and done_at == chunks[-1][0]
    # Nothing runs between a stream's final chunk and its completion.
    for index, (_, qid, response) in enumerate(delivered):
        if isinstance(response, StreamChunk) and response.last:
            assert delivered[index + 1][1] == qid
            assert isinstance(delivered[index + 1][2], list)


class ExplodingRelay(SutBase):
    """Forwards to ``inner`` and raises inside one chunk's delivery."""

    def __init__(self, inner, query_id, seq):
        super().__init__("exploding-relay")
        self.inner, self.target = inner, (query_id, seq)

    def start_run(self, loop, responder):
        super().start_run(loop, responder)
        self.inner.start_run(loop, self._relay)

    def issue_query(self, query):
        self.inner.issue_query(query)

    def flush(self):
        self.inner.flush()

    def _relay(self, query, response):
        if (isinstance(response, StreamChunk)
                and (query.id, response.seq) == self.target):
            raise KeyError("relay lost its state")
        self._responder(query, response)


def test_abort_origin_names_the_chunk_without_an_address(echo_qsl):
    settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=500.0,
        server_latency_bound=1.0, min_query_count=50, min_duration=0.0,
        seed=4)

    def verdict():
        sut = ExplodingRelay(
            StreamingSUT(EchoSUT(latency=0.001), StreamModel(seed=4)), 7, 2)
        return run_benchmark(sut, echo_qsl, settings).stats.aborted

    first = verdict()
    assert first is not None and first == verdict()
    assert "0x" not in first
    assert "stream chunk 2 of query 7" in first


def test_abort_origin_names_the_final_chunk_when_its_completion_raises(
        echo_qsl):
    """The completion rides the final chunk's event, so that chunk is
    what the verdict names when the completion's delivery raises."""
    class LosesCompletions(ExplodingRelay):
        def _relay(self, query, response):
            if isinstance(response, list) and query.id == self.target[0]:
                raise KeyError("relay lost its state")
            self._responder(query, response)

    model = StreamModel(seed=4)
    final = len(model.plan(7).chunks) - 1
    sut = LosesCompletions(
        StreamingSUT(EchoSUT(latency=0.001), model), 7, None)
    aborted = run_benchmark(sut, echo_qsl, TestSettings(
        scenario=Scenario.SERVER, server_target_qps=500.0,
        server_latency_bound=1.0, min_query_count=50, min_duration=0.0,
        seed=4)).stats.aborted
    assert aborted is not None and "0x" not in aborted
    assert f"stream chunk {final} of query 7" in aborted
