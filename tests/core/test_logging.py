"""Query log bookkeeping and serialization."""

import json
import math

import pytest

from repro.core.logging import QueryLog
from repro.core.query import Query, QuerySample, QuerySampleResponse


def _query(qid, indices, first_sample_id=None):
    base = first_sample_id if first_sample_id is not None else qid * 100
    samples = tuple(
        QuerySample(id=base + i, index=idx) for i, idx in enumerate(indices)
    )
    return Query(id=qid, samples=samples)


def _responses(query, payload=None):
    return [QuerySampleResponse(s.id, payload) for s in query.samples]


def test_issue_then_complete():
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, issue_time=1.0)
    log.record_completion(query, 1.5, _responses(query), keep_responses=False)
    assert log.query_count == 1
    assert log.outstanding == 0
    assert log.latencies() == [0.5]


def test_double_issue_rejected():
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, 1.0)
    with pytest.raises(ValueError):
        log.record_issue(query, 2.0)


def test_completion_without_issue_rejected():
    log = QueryLog()
    with pytest.raises(ValueError):
        log.record_completion(_query(1, [4]), 1.0, [], keep_responses=False)


def test_double_completion_rejected():
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, 1.0)
    log.record_completion(query, 1.5, _responses(query), keep_responses=False)
    with pytest.raises(ValueError):
        log.record_completion(query, 2.0, _responses(query),
                              keep_responses=False)


@pytest.mark.parametrize("time, message", [
    (1.0, "completed before it was issued"),
    (float("nan"), "completed at nan, which is not a time"),
])
def test_completion_before_issue_time_rejected(time, message):
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, 2.0)
    with pytest.raises(ValueError, match=message):
        log.record_completion(query, time, _responses(query),
                              keep_responses=False)
    assert log.outstanding == 1


def test_a_completion_at_nan_fails_its_query_in_a_retired_log():
    """A completion at NaN passes no ``<`` check against the issue time;
    unless it is caught, the record retires as NaN and reads back as
    unresolved while ``completed_count`` counts it.  Its failure time
    reads NaN before the record retires, after, and in ``rows()``."""
    log = QueryLog()
    queries = [Query(qid, (QuerySample(qid, qid),), issue_time=qid * 1e-3)
               for qid in range(1024)]
    for query in queries:
        log.record_issue(query, query.issue_time)
    for query in queries:
        time = float("nan") if query.id == 5 else query.issue_time + 0.01
        log.observe_completion(query, time, _responses(query),
                               keep_responses=False)
        if query.id == 5:
            assert math.isnan(log.record_for(5).failure_time)
    assert not log._records  # the whole block retired into the columns
    record = log.record_for(5)
    assert record.completion_time is None
    assert record.failure_reason == "completed at nan, which is not a time"
    assert math.isnan(record.failure_time)
    rows = {row[0]: row for row in log.rows()}
    assert math.isnan(rows[5][6])
    assert rows[6][6] is None and rows[6][7] is None
    assert log.failed_count == 1
    assert len(log.completed_records()) == log.completed_count == 1023
    assert [r.query.id for r in log.failed_records()] == [5]
    assert log.outstanding == 0


def test_a_failure_without_a_time_reads_back_none():
    """A float column cannot tell a failure at None from one at NaN, so
    a log given a failure without a time keeps its records whole."""
    log = QueryLog()
    queries = [Query(qid, (QuerySample(qid, qid),), issue_time=qid * 1e-3)
               for qid in range(1024)]
    for query in queries:
        log.record_issue(query, query.issue_time)
    for query in queries:
        if query.id == 5:
            log.record_failure(query, None, "no time")
        else:
            log.observe_completion(query, query.issue_time + 0.01,
                                   _responses(query), keep_responses=False)
    assert log.record_for(5).failure_time is None
    assert {row[0]: row for row in log.rows()}[5][6] is None


def test_wrong_response_count_rejected():
    log = QueryLog()
    query = _query(1, [4, 5])
    log.record_issue(query, 1.0)
    with pytest.raises(ValueError):
        log.record_completion(query, 1.5, _responses(query)[:1],
                              keep_responses=False)


def test_issued_samples_counts_samples_not_queries():
    log = QueryLog()
    log.record_issue(_query(1, [1, 2, 3]), 0.0)
    log.record_issue(_query(2, [4]), 0.0)
    assert log.issued_samples == 4


def test_responses_dropped_by_default():
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, 1.0)
    log.record_completion(query, 1.5, _responses(query, "data"),
                          keep_responses=False)
    assert log.logged_responses() == {}


def test_responses_kept_when_requested():
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, 1.0)
    log.record_completion(query, 1.5, _responses(query, "data"),
                          keep_responses=True)
    assert log.logged_responses() == {100: "data"}


def test_probabilistic_logging_keeps_roughly_expected_fraction():
    log = QueryLog(log_sample_probability=0.5, seed=7)
    for qid in range(1, 201):
        query = _query(qid, [qid])
        log.record_issue(query, 0.0)
        log.record_completion(query, 0.1, _responses(query, qid),
                              keep_responses=False)
    kept = len(log.logged_responses())
    assert 60 < kept < 140  # ~100 expected


def test_bad_probability_rejected():
    with pytest.raises(ValueError):
        QueryLog(log_sample_probability=1.5)


def test_sample_index_maps():
    log = QueryLog()
    query = _query(1, [10, 20])
    log.record_issue(query, 0.0)
    assert log.sample_index_map() == {100: 10, 101: 20}


def test_records_in_issue_order():
    log = QueryLog()
    for qid in (3, 1, 2):
        log.record_issue(_query(qid, [qid]), float(qid))
    assert [r.query.id for r in log.records()] == [3, 1, 2]


def test_jsonl_serialization():
    log = QueryLog()
    query = _query(1, [4])
    log.record_issue(query, 1.0, scheduled_time=0.9)
    log.record_completion(query, 1.5, _responses(query, [1, 2]),
                          keep_responses=True)
    lines = log.to_jsonl().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["query_id"] == 1
    assert entry["sample_indices"] == [4]
    assert entry["scheduled_time"] == 0.9
    assert entry["responses"] == [[1, 2]]


# -- the tolerant referee path: one verdict per kind of misbehavior -----------

def _ids(*sample_ids):
    return [QuerySampleResponse(sample_id, None) for sample_id in sample_ids]


@pytest.mark.parametrize("indices, responses, time, reason", [
    # one-sample queries (Server, SingleStream): ids 100
    ([4], _ids(999), 1.5,
     "1 responses name sample ids that are not part of the query"),
    ([4], _ids(100, 100), 1.5, "expected 1 responses, got 2"),
    ([4], [], 1.5, "expected 1 responses, got 0"),
    ([4], _ids(100), 0.5, "completed at 0.5 before issue at 1.0"),
    # multi-sample queries (MultiStream, Offline): ids 100, 101, 102
    ([4, 5, 6], _ids(100, 101, 999), 1.5,
     "1 responses name sample ids that are not part of the query"),
    ([4, 5, 6], _ids(997, 998, 999), 1.5,
     "3 responses name sample ids that are not part of the query"),
    # the right ids, but one answered twice and one never
    ([4, 5, 6], _ids(100, 101, 101), 1.5,
     "0 responses name sample ids that are not part of the query"),
    ([4, 5, 6], _ids(100, 101), 1.5, "expected 3 responses, got 2"),
])
def test_malformed_completion_resolves_the_query_as_failed(
        indices, responses, time, reason):
    log = QueryLog()
    query = _query(1, indices)
    log.record_issue(query, 1.0)
    status = log.observe_completion(query, time, responses,
                                    keep_responses=False)
    assert status == "failed"
    record = log.record_for(1)
    assert record.failure_reason == reason
    assert record.failure_time == time
    assert record.completion_time is None
    assert log.outstanding == 0
    assert log.completed_records() == []
    assert log.failed_records() == [record]


@pytest.mark.parametrize("indices", [[4], [4, 5, 6]])
def test_clean_completion_in_any_response_order(indices):
    log = QueryLog()
    query = _query(1, indices)
    log.record_issue(query, 1.0)
    responses = list(reversed(_responses(query)))
    assert log.observe_completion(
        query, 1.5, responses, keep_responses=True) == "completed"
    assert log.record_for(1).completion_time == 1.5
    assert log.record_for(1).responses == responses
    assert log.failed_records() == []


def test_unsolicited_and_duplicate_outcomes_leave_the_records_alone():
    log = QueryLog()
    query = _query(1, [4])
    stranger = _query(2, [5])
    assert log.observe_completion(
        stranger, 1.2, _responses(stranger),
        keep_responses=False) == "unsolicited"
    assert log.record_failure(stranger, 1.3, "lost") == "unsolicited"
    log.record_issue(query, 1.0)
    assert log.observe_completion(
        query, 1.5, _responses(query), keep_responses=False) == "completed"
    assert log.observe_completion(
        query, 1.6, _responses(query), keep_responses=False) == "duplicate"
    assert log.record_failure(query, 1.7, "late") == "duplicate"
    assert log.unsolicited_responses == [(2, 1.2), (2, 1.3)]
    assert log.duplicate_completions == [(1, 1.6), (1, 1.7)]
    assert log.query_count == 1 and log.outstanding == 0
    assert log.record_for(1).completion_time == 1.5
    assert log.record_for(1).failure_reason is None
    assert log.record_for(2) is None
