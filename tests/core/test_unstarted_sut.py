"""Using a SUT before ``start_run`` fails loudly, naming the mistake.

Nothing may answer, schedule or read the clock through a SUT that was
never handed a loop and a responder: every such use raises
``RuntimeError("start_run was never called on this SUT")``.
"""

import pytest

from repro.core.query import (
    Query, QuerySample, QuerySampleResponse, SessionTurn, StreamChunk,
)
from repro.core.sut import SutBase
from repro.faults import DegradedSUT
from repro.sessions import PrefixCacheSUT
from repro.sut.echo import EchoSUT

NEVER_STARTED = "start_run was never called"


def one_query(session=None):
    return Query(id=1, samples=(QuerySample(id=1, index=0),), session=session)


def session_turn():
    return SessionTurn(session_id=4, turn_index=0, turn_count=2,
                       prefix_tokens=0, new_tokens=16, response_tokens=16)


@pytest.mark.parametrize("make", [
    lambda: EchoSUT(),
    lambda: EchoSUT(latency=0.001),
    lambda: EchoSUT(latency=0.001, concurrency=2),
    lambda: DegradedSUT(EchoSUT()),
    lambda: DegradedSUT(EchoSUT(latency=0.001)),
], ids=["echo-sync", "echo-delayed", "echo-slots", "valve", "valve-delayed"])
def test_issue_query_before_start_run_raises(make):
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        make().issue_query(one_query())


@pytest.mark.sessions
def test_a_session_turn_through_an_unstarted_cache_raises():
    cache = PrefixCacheSUT(EchoSUT(latency=0.001))
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        cache.issue_query(one_query(session=session_turn()))


def test_a_bare_sut_base_refuses_every_use_before_start_run():
    sut = SutBase("bare")
    query = one_query()
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        sut.complete(query, [QuerySampleResponse(1, 0)])
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        sut.fail(query, "no")
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        sut.emit_chunk(query, StreamChunk(1, seq=0, last=True))
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        sut.loop
    with pytest.raises(RuntimeError, match=NEVER_STARTED):
        sut.loop.now


def test_what_needs_no_run_still_works_before_one():
    sut = EchoSUT(latency=0.001)
    assert sut.name == "echo"
    sut.flush()
    sut.close()
    sut.close()
