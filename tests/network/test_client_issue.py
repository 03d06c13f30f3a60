"""The wire client's issue path on the loop thread, without sockets.

A ``NetworkSUT`` whose pool is one stand-in connection that keeps what
it is sent: what goes on the wire per query, built by which function,
what a retry sends again, and what becomes of a query the wire cannot
carry.
"""

import numpy as np
import pytest

from repro.core.events import EventLoop, WallClock
from repro.core.query import Query, QueryFailure, QuerySample
from repro.network import protocol
from repro.network.client import NetworkSUT


class KeptConnection:
    """Stands in for a pooled connection; every send succeeds."""

    alive = True
    reader = None

    def __init__(self):
        self.frames = []

    def send(self, frame):
        self.frames.append(frame)
        return True

    def close(self):
        self.alive = False


def started_client(**options):
    """A started ``NetworkSUT`` over one :class:`KeptConnection`, and
    the outcomes its responder heard."""
    sut = NetworkSUT(("127.0.0.1", 1), **options)
    connection = KeptConnection()
    sut._connect = lambda: connection
    sut._start_reader = lambda conn: None
    heard = []
    sut.start_run(EventLoop(WallClock()),
                  lambda query, outcome: heard.append((query, outcome)))
    return sut, connection, heard


QUERIES = (
    Query(id=1, samples=(QuerySample(id=10, index=3),)),
    Query(id=2, samples=(QuerySample(id=20, index=2 ** 63 - 1),)),
    Query(id=3, samples=(QuerySample(id=30, index=1),
                         QuerySample(id=31, index=2))),
)


def test_each_query_goes_out_as_its_issue_frame():
    sut, connection, heard = started_client()
    for query in QUERIES:
        sut.issue_query(query)
    assert connection.frames == [protocol.issue_frame(q) for q in QUERIES]
    assert sut.stats.queries_sent == len(QUERIES)
    assert sut.stats.bytes_sent == sum(map(len, connection.frames))
    assert sorted(sut._inflight) == [1, 2, 3]
    assert heard == []


def test_the_frame_is_built_through_the_module_function(monkeypatch):
    """``benchmarks/perf/spans.py`` times the encoder by wrapping
    ``protocol.issue_frame`` by name, so the client must call it there."""
    built = []
    shipped = protocol.issue_frame

    def wrapped(query):
        built.append(query)
        return shipped(query)

    monkeypatch.setattr(protocol, "issue_frame", wrapped)
    sut, connection, _ = started_client()
    sut.issue_query(QUERIES[0])
    assert built == [QUERIES[0]]
    assert connection.frames == [shipped(QUERIES[0])]


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: f"query{q.id}")
def test_a_retry_resends_the_same_bytes(query):
    sut, connection, heard = started_client(max_attempts=2)
    sut.issue_query(query)
    sut._attempt_lost(sut._inflight[query.id], "lost for the test")
    first, again = connection.frames
    assert again == first == protocol.issue_frame(query)
    assert sut.stats.queries_sent == 2 and sut.stats.retries == 1
    assert heard == []


UNENCODABLE = (
    Query(id=1, samples=(QuerySample(id=1, index=2 ** 64),)),
    Query(id=2 ** 63, samples=(QuerySample(id=1, index=2),)),
    Query(id=3, samples=(QuerySample(id=1, index=2),
                         QuerySample(id=2, index=np.bool_(True)))),
)


@pytest.mark.parametrize("query", UNENCODABLE, ids=lambda q: f"query{q.id}")
def test_an_unencodable_query_fails_alone_with_nothing_in_flight(query):
    """The codec's contract: a sender fails the one query the wire
    cannot carry.  It used to escape ``issue_query`` into the run,
    leaving the query in flight with its deadline armed and counted as
    sent."""
    sut, connection, heard = started_client()
    sut.issue_query(query)
    (failed, outcome), = heard
    assert failed is query and isinstance(outcome, QueryFailure)
    assert "wire-encodable" in outcome.reason
    assert sut._inflight == {} and sut._timer is None
    assert (sut.stats.queries_sent, sut.stats.bytes_sent,
            sut.stats.gave_up_queries) == (0, 0, 0)
    assert connection.frames == []
    sut.issue_query(QUERIES[0])
    assert connection.frames == [protocol.issue_frame(QUERIES[0])]
    assert list(sut._inflight) == [QUERIES[0].id]


def test_a_frame_over_the_cap_fails_its_query(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    sut, connection, heard = started_client()
    sut.issue_query(QUERIES[0])
    (_, outcome), = heard
    assert isinstance(outcome, QueryFailure)
    assert "frame cap" in outcome.reason
    assert sut._inflight == {} and connection.frames == []


def test_a_retry_builds_no_second_frame(monkeypatch):
    built = []
    shipped = protocol.issue_frame
    monkeypatch.setattr(protocol, "issue_frame",
                        lambda query: built.append(query) or shipped(query))
    sut, connection, _ = started_client(max_attempts=3)
    sut.issue_query(QUERIES[2])
    for _ in range(2):
        sut._attempt_lost(sut._inflight[QUERIES[2].id], "lost for the test")
    assert built == [QUERIES[2]]
    assert connection.frames == [shipped(QUERIES[2])] * 3
