"""``malformed_reason``: the wrapper-side twin of the referee's response
set checks.  The attempt engine that calls it is covered by
``test_attempts.py``."""

from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.faults.filtering import malformed_reason


def make_query(qid=1, sample_ids=(1, 2)):
    return Query(id=qid, samples=tuple(
        QuerySample(id=s, index=s + 100) for s in sample_ids))


def responses_for(query):
    return [QuerySampleResponse(s.id, None) for s in query.samples]


class TestMalformedReason:
    def test_clean_set_is_none(self):
        query = make_query()
        assert malformed_reason(query, responses_for(query)) is None

    def test_count_mismatch(self):
        query = make_query()
        reason = malformed_reason(query, responses_for(query)[:1])
        assert "expected 2 responses" in reason

    def test_wrong_sample_ids(self):
        query = make_query()
        bad = [QuerySampleResponse(99, None), QuerySampleResponse(1, None)]
        reason = malformed_reason(query, bad)
        assert "not part of the query" in reason

    def test_order_does_not_matter(self):
        query = make_query()
        reordered = list(reversed(responses_for(query)))
        assert malformed_reason(query, reordered) is None
