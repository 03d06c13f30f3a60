"""``SutBase``: the responder channel, and ``flush`` and ``close``
forwarded down ``inners``."""

import pytest

from repro.core.events import EventLoop
from repro.core.query import (
    Query, QueryFailure, QuerySample, QuerySampleResponse, StreamChunk,
)
from repro.core.sut import SutBase
from repro.durability import SelfHealingSUT
from repro.faults import ResilientSUT
from repro.streaming import StreamingSUT


class Owner(SutBase):
    """A backend owning something: counts how often it is released."""

    def __init__(self, name="owner"):
        super().__init__(name)
        self.closes = 0
        self.flushes = 0

    def close(self):
        self.closes += 1

    def flush(self):
        self.flushes += 1


class Bare:
    """Protocol-only SUT: no ``close`` at all."""

    name = "bare"

    def start_run(self, loop, responder):
        pass

    def issue_query(self, query):
        pass

    def flush(self):
        pass


def test_closing_the_top_of_a_stack_closes_the_bottom_exactly_once():
    owner = Owner()
    stack = ResilientSUT(SelfHealingSUT(StreamingSUT(owner)))
    stack.close()
    stack.close()
    assert owner.closes == 1


def test_close_reaches_every_inner_and_skips_those_without_one():
    primary, standby = Owner("primary"), Bare()
    stack = ResilientSUT(SelfHealingSUT(primary, standby))
    stack.close()
    assert primary.closes == 1


def test_a_new_run_makes_the_stack_closable_again():
    owner = Owner()
    stack = ResilientSUT(StreamingSUT(owner))
    stack.close()
    stack.start_run(EventLoop(), lambda query, responses: None)
    stack.close()
    assert owner.closes == 2


def started(sut):
    """Start ``sut`` on a fresh loop; return what reaches its responder."""
    received = []
    sut.start_run(EventLoop(), lambda query, outcome: received.append(
        (query, outcome)))
    return received


def test_complete_hands_the_responses_to_the_responder():
    sut = SutBase("base")
    received = started(sut)
    query = Query(id=3, samples=(QuerySample(id=30, index=1),))
    responses = [QuerySampleResponse(30, "answer")]
    sut.complete(query, responses)
    assert received == [(query, responses)]


def test_fail_delivers_a_query_failure_with_its_reason():
    sut = SutBase("base")
    received = started(sut)
    query = Query(id=3, samples=(QuerySample(id=30, index=1),))
    sut.fail(query, "backend crashed")
    ((got, outcome),) = received
    assert got is query
    assert isinstance(outcome, QueryFailure)
    assert outcome.reason == "backend crashed"


def test_emit_chunk_rides_the_same_channel():
    sut = SutBase("base")
    received = started(sut)
    query = Query(id=3, samples=(QuerySample(id=30, index=1),))
    chunk = StreamChunk(3, seq=0, last=True)
    sut.emit_chunk(query, chunk)
    assert received == [(query, chunk)]


def test_the_loop_is_the_one_the_run_handed_over():
    sut = SutBase("base")
    loop = EventLoop()
    sut.start_run(loop, lambda query, outcome: None)
    assert sut.loop is loop


def test_issue_query_is_left_to_the_concrete_sut():
    sut = SutBase("base")
    started(sut)
    with pytest.raises(NotImplementedError):
        sut.issue_query(Query(id=1, samples=(QuerySample(id=1, index=0),)))


def test_a_leaf_without_inners_closes_and_flushes_as_a_no_op():
    sut = SutBase("leaf")
    sut.flush()
    sut.close()
    sut.close()
    assert sut.inners == ()


def test_flush_walks_the_same_path():
    primary, standby = Owner("primary"), Owner("standby")
    stack = ResilientSUT(SelfHealingSUT(StreamingSUT(primary), standby))
    stack.flush()
    assert (primary.flushes, standby.flushes) == (1, 1)
