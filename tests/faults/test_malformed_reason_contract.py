"""``malformed_reason`` against the two-set comparison it documents, so
the one-sample answer may be settled by comparing ids: same verdict,
same words, for every response set."""

from hypothesis import given, settings, strategies as st

from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.faults.filtering import malformed_reason


def by_sets(query, responses):
    if len(responses) != len(query.samples):
        return (f"expected {len(query.samples)} responses, "
                f"got {len(responses)}")
    expected = {s.id for s in query.samples}
    got = {r.sample_id for r in responses}
    if got != expected:
        return (f"{len(got - expected)} responses name sample ids that are "
                "not part of the query")
    return None


IDS = st.integers(0, 4)


@settings(max_examples=400, deadline=None)
@given(st.lists(IDS, min_size=1, max_size=3, unique=True),
       st.lists(IDS, max_size=4), st.booleans())
def test_verdict_and_reason_equal_the_set_comparison(sample_ids, answered,
                                                     as_tuple):
    query = Query(id=9, samples=tuple(
        QuerySample(id=s, index=s + 100) for s in sample_ids))
    responses = [QuerySampleResponse(s, None) for s in answered]
    if as_tuple:  # any sequence is a response set, not only a list
        responses = tuple(responses)
    assert malformed_reason(query, responses) == by_sets(query, responses)


def test_the_one_sample_cases_in_words():
    query = Query(id=1, samples=(QuerySample(id=7, index=0),))
    assert malformed_reason(query, [QuerySampleResponse(7, "x")]) is None
    assert malformed_reason(query, [QuerySampleResponse(8, "x")]) == (
        "1 responses name sample ids that are not part of the query")
    assert malformed_reason(query, []) == "expected 1 responses, got 0"
