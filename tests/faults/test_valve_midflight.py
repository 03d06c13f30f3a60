"""``DegradedSUT`` flipped while a query is in flight.

Mode changes apply to deliveries from that moment on, so the valve must
know when it saw each issue even while it is healthy: the stretch is
``factor`` times the time since *the valve* was handed the query (after
any prefill delay above it), not since ``query.issue_time``.
"""

import pytest

from repro.core.events import EventLoop, VirtualClock
from repro.core.query import (
    Query, QueryFailure, QuerySample, QuerySampleResponse, StreamChunk,
)
from repro.core.sut import SutBase
from repro.faults import DegradedSUT

from tests.conftest import FixedLatencySUT, valve_healthy

BACKEND = 0.010


def one_query(query_id=1, issue_time=0.0):
    return Query(id=query_id, samples=(QuerySample(id=query_id, index=0),),
                 issue_time=issue_time)


class ChunkedSUT(SutBase):
    """Two chunks at 4 ms and 8 ms of backend time, the answer at 10."""

    def issue_query(self, query):
        loop = self.loop
        loop.schedule_after(0.004, lambda: self.emit_chunk(
            query, StreamChunk(query.id, seq=0, token_count=3)))
        loop.schedule_after(0.008, lambda: self.emit_chunk(
            query, StreamChunk(query.id, seq=1, token_count=2, last=True)))
        loop.schedule_after(BACKEND, lambda: self.complete(
            query, [QuerySampleResponse(query.samples[0].id, 0)]))


class FailingSUT(SutBase):
    def issue_query(self, query):
        self.loop.schedule_after(BACKEND, lambda: self.fail(query, "boom"))


def started(inner=None):
    loop = EventLoop(VirtualClock())
    valve = DegradedSUT(inner if inner is not None
                        else FixedLatencySUT(latency=BACKEND))
    seen = []
    valve.start_run(loop, lambda q, r: seen.append((loop.now, q.id, r)))
    return loop, valve, seen


def test_degrade_after_a_healthy_issue_stretches_from_when_the_valve_saw_it():
    loop, valve, seen = started()
    # The query is stamped 0 by the LoadGen but reaches the valve at
    # 3 ms (a cache's prefill delay sits above the valve in a fleet).
    loop.schedule(0.003, lambda: valve.issue_query(one_query(issue_time=0.0)))
    loop.schedule(0.008, lambda: valve.degrade(10.0))
    loop.run()
    assert [t for t, _, _ in seen] == [pytest.approx(0.003 + 10 * BACKEND)]
    assert valve.slowed == 1 and valve.blackholed == 0
    assert valve._issued_at == {}


def test_partition_mid_flight_blackholes_and_forgets_the_issue():
    loop, valve, seen = started()
    valve.issue_query(one_query())
    assert list(valve._issued_at) == [1]
    loop.schedule(0.005, valve.partition)
    loop.run()
    assert seen == []
    assert valve.blackholed == 1 and valve.slowed == 0
    assert valve._issued_at == {}
    assert loop.now == pytest.approx(BACKEND)


def test_restore_mid_flight_delivers_on_time():
    loop, valve, seen = started()
    valve.degrade(10.0)
    valve.issue_query(one_query(1))
    valve.partition()
    valve.issue_query(one_query(2))
    loop.schedule(0.005, valve.restore)
    loop.run()
    assert [(t, qid) for t, qid, _ in seen] == [
        (pytest.approx(BACKEND), 1), (pytest.approx(BACKEND), 2)]
    assert valve.slowed == 0 and valve.blackholed == 0
    assert valve_healthy(valve)
    assert valve._issued_at == {}


def test_a_healthy_valve_adds_no_event_and_no_delay():
    loop, valve, seen = started()
    loop.schedule(0.002, lambda: valve.issue_query(one_query()))
    loop.run()
    assert [t for t, _, _ in seen] == [0.002 + BACKEND]  # exact, not approx
    assert valve.slowed == 0 and valve._issued_at == {}


def test_chunks_stretch_like_completions():
    loop, valve, seen = started(ChunkedSUT("chunked"))
    loop.schedule(0.001, lambda: valve.issue_query(one_query()))
    loop.schedule(0.002, lambda: valve.degrade(3.0))
    loop.run()
    kinds = [type(r).__name__ for _, _, r in seen]
    assert kinds == ["StreamChunk", "StreamChunk", "list"]
    assert [t for t, _, _ in seen] == [
        pytest.approx(0.001 + 3 * 0.004), pytest.approx(0.001 + 3 * 0.008),
        pytest.approx(0.001 + 3 * BACKEND)]
    assert valve.slowed == 3
    assert valve._issued_at == {}


def test_a_chunk_keeps_the_issue_instant_and_the_terminal_drops_it():
    loop, valve, seen = started(ChunkedSUT("chunked"))
    valve.issue_query(one_query())
    loop.run(until=0.009)
    assert len(seen) == 2 and valve._issued_at == {1: 0.0}
    loop.run()
    assert len(seen) == 3 and valve._issued_at == {}


def test_partition_between_chunks_drops_the_rest_of_the_stream():
    loop, valve, seen = started(ChunkedSUT("chunked"))
    valve.issue_query(one_query())
    loop.schedule(0.006, valve.partition)
    loop.run()
    assert [(t, r.seq) for t, _, r in seen] == [(pytest.approx(0.004), 0)]
    assert valve.blackholed == 2 and valve._issued_at == {}


def test_failures_are_stretched_and_forgotten_like_answers():
    loop, valve, seen = started(FailingSUT("failing"))
    valve.degrade(2.0)
    valve.issue_query(one_query())
    loop.run()
    (when, _, outcome), = seen
    assert when == pytest.approx(2 * BACKEND)
    assert isinstance(outcome, QueryFailure) and outcome.reason == "boom"
    assert valve._issued_at == {}


def test_an_answer_nobody_asked_for_passes_a_degraded_valve_unstretched():
    # No issue instant on record: nothing to measure a stretch from.
    loop, valve, seen = started()
    valve.degrade(5.0)
    loop.schedule(0.007, lambda: valve.inner.complete(one_query(99), []))
    loop.run()
    assert [(t, qid) for t, qid, _ in seen] == [(0.007, 99)]
    assert valve.slowed == 0
