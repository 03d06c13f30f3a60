"""Query, sample, and record types."""

import pickle

import pytest

from repro.core.query import (
    Query,
    QueryRecord,
    QuerySample,
    QuerySampleResponse,
    StreamChunk,
)
from repro.network import protocol


def _query(n=2, qid=1):
    samples = tuple(QuerySample(id=i + 1, index=i * 10) for i in range(n))
    return Query(id=qid, samples=samples)


def test_query_requires_samples():
    with pytest.raises(ValueError):
        Query(id=1, samples=())


def test_sample_count_and_indices():
    query = _query(3)
    assert query.sample_count == 3
    assert query.sample_indices == (0, 10, 20)


def test_query_samples_are_immutable_tuples():
    query = _query()
    assert isinstance(query.samples, tuple)
    sample = query.samples[0]
    assert sample.id == 1 and sample.index == 0


def test_duplicate_indices_allowed():
    samples = (QuerySample(1, 7), QuerySample(2, 7))
    query = Query(id=1, samples=samples)
    assert query.sample_indices == (7, 7)


def test_response_equality_and_repr():
    a = QuerySampleResponse(1, "x")
    b = QuerySampleResponse(1, "x")
    c = QuerySampleResponse(2, "x")
    assert a == b
    assert a != c
    assert "sample_id=1" in repr(a)


def test_record_latency():
    record = QueryRecord(query=_query(), issue_time=1.0, completion_time=1.25)
    assert record.latency == pytest.approx(0.25)
    assert record.completed


def test_record_latency_before_completion_raises():
    record = QueryRecord(query=_query(), issue_time=1.0)
    assert not record.completed
    with pytest.raises(ValueError):
        _ = record.latency


def test_per_query_types_carry_no_instance_dict():
    """One of each is allocated per query (a chunk per streamed token):
    slots, not a dict, and no attribute can appear by typo."""
    query = _query()
    for instance in (query, QueryRecord(query=query, issue_time=0.0),
                     QuerySampleResponse(1), StreamChunk(1, 0)):
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    with pytest.raises(AttributeError):
        query.isue_time = 1.0


def test_query_and_record_compare_and_print_by_value():
    assert _query() == _query()
    assert _query() != _query(qid=2)
    assert _query() != "query"
    assert repr(_query(n=1)) == (
        "Query(id=1, samples=(QuerySample(id=1, index=0),), "
        "issue_time=0.0, contiguous=True, session=None)")
    record = QueryRecord(query=_query(), issue_time=1.0, scheduled_time=0.5)
    assert record == QueryRecord(_query(), 1.0, scheduled_time=0.5)
    record.chunk_count = 3
    assert record != QueryRecord(_query(), 1.0, scheduled_time=0.5)
    assert repr(record).startswith("QueryRecord(query=Query(id=1, ")
    assert "scheduled_time=0.5" in repr(record)
    assert "chunk_count=3" in repr(record)
    with pytest.raises(TypeError):
        hash(record)


# -- QuerySampleResponse: the contract its representation must keep -------------

EQUAL_TO_RESPONSE = [
    (QuerySampleResponse(1, "x"), True),
    (QuerySampleResponse(2, "x"), False),
    (QuerySampleResponse(1, "y"), False),
    ((1, "x"), False),
    (QuerySample(1, "x"), False),
    (None, False),
]


@pytest.mark.parametrize("other, equal", EQUAL_TO_RESPONSE,
                         ids=["same", "sample_id", "data", "tuple",
                              "sample", "none"])
def test_response_compares_only_with_a_response(other, equal):
    response = QuerySampleResponse(1, "x")
    assert (response == other) is equal
    assert (response != other) is not equal


def test_response_is_unhashable():
    with pytest.raises(TypeError):
        hash(QuerySampleResponse(1, "x"))


def test_response_repr_is_literal():
    assert repr(QuerySampleResponse(1, "x")) == \
        "QuerySampleResponse(sample_id=1, data='x')"
    assert repr(QuerySampleResponse(7)) == \
        "QuerySampleResponse(sample_id=7, data=None)"


def test_response_survives_pickle():
    response = QuerySampleResponse(3, [1, 2.5, "z"])
    back = pickle.loads(pickle.dumps(response))
    assert back == response
    assert type(back) is QuerySampleResponse
    assert (back.sample_id, back.data) == (3, [1, 2.5, "z"])


def test_response_survives_the_wire():
    responses = [QuerySampleResponse(1, 42), QuerySampleResponse(2, None),
                 QuerySampleResponse(3, "label")]
    frame = protocol.complete_frame(9, responses, server_recv=0.5,
                                    server_send=0.75)
    (_, payload), = protocol.FrameReader().feed(frame)
    query_id, back, recv, send = protocol.parse_complete(payload)
    assert (query_id, recv, send) == (9, 0.5, 0.75)
    assert back == responses
    assert [type(r) for r in back] == [QuerySampleResponse] * 3


def test_response_has_no_instance_dict():
    response = QuerySampleResponse(1, "x")
    assert not hasattr(response, "__dict__")
    with pytest.raises(AttributeError):
        response.sampel_id = 2
