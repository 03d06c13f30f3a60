"""The two arrival screens sort by what an arrival *is*, not by its
exact type: the referee's ``ScenarioDriver.handle_completion`` and the
attempt engine's ``AttemptSUT._deliver`` give a subclassed chunk, a
subclassed failure, and a response set that is some other sequence the
verdict their plain spellings get."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import EventLoop
from repro.core.logging import QueryLog
from repro.core.query import (
    Query,
    QueryFailure,
    QuerySample,
    QuerySampleResponse,
    StreamChunk,
)
from repro.core.sampler import SampleSelector
from repro.core.scenarios import PerformanceSource, make_driver
from repro.faults.filtering import Attempt, AttemptSUT
from repro.metrics import MetricsRegistry

pytestmark = pytest.mark.streaming


class TaggedChunk(StreamChunk):
    pass


class TypedFailure(QueryFailure):
    __slots__ = ()


class ResponseList(list):
    pass


def answers(query):
    return [QuerySampleResponse(s.id, None) for s in query.samples]


SPELLINGS = {
    "list": list, "list-subclass": ResponseList, "tuple": tuple,
}


class Held:
    """A SUT that keeps what it is issued; the test answers by hand."""

    name = "held"

    def __init__(self):
        self.queries = []

    def issue_query(self, query):
        self.queries.append(query)

    def flush(self):
        pass


def single_stream_driver(registry=None):
    loop = EventLoop()
    sut, log = Held(), QueryLog()
    driver = make_driver(
        loop, TestSettings(scenario=Scenario.SINGLE_STREAM,
                           min_query_count=3, min_duration=0.0),
        sut, PerformanceSource(SampleSelector(range(8), seed=1)), log,
        registry=registry)
    driver.start()
    return driver, sut, log


class TestTheReferee:
    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_any_response_sequence_completes_the_query(self, spelling):
        driver, sut, log = single_stream_driver()
        query = sut.queries[0]
        driver.handle_completion(query, SPELLINGS[spelling](answers(query)))
        assert log.record_for(query.id).completed
        assert len(sut.queries) == 2  # single-stream moved on
        assert log.anomaly_count == 0

    @pytest.mark.parametrize("chunk_type", [StreamChunk, TaggedChunk])
    def test_a_chunk_is_progress_whatever_its_class(self, chunk_type):
        registry = MetricsRegistry()
        driver, sut, log = single_stream_driver(registry)
        query = sut.queries[0]
        driver.handle_completion(query, chunk_type(query.id, 0, 3))
        driver.handle_completion(query, chunk_type(query.id, 1, 2, True))
        record = log.record_for(query.id)
        assert (record.chunk_count, record.token_count) == (2, 5)
        assert record.stream_closed and not (record.completed or record.failed)
        assert len(sut.queries) == 1  # a chunk resolves nothing
        assert registry.get("stream_chunks_total").labels(
            scenario="single_stream").value == 2
        # Out of sequence: an anomaly, still not an outcome.
        driver.handle_completion(query, chunk_type(query.id, 5))
        assert len(log.stream_chunk_anomalies) == 1
        driver.handle_completion(query, answers(query))
        assert record.completed and len(sut.queries) == 2

    @pytest.mark.parametrize("failure_type", [QueryFailure, TypedFailure])
    def test_a_failure_is_recorded_whatever_its_class(self, failure_type):
        driver, sut, log = single_stream_driver()
        query = sut.queries[0]
        driver.handle_completion(query, failure_type("backend died"))
        record = log.record_for(query.id)
        assert record.failed and record.failure_reason == "backend died"
        assert len(sut.queries) == 2


class Sorter(AttemptSUT):
    """The bare engine; each hook notes that it was reached."""

    def __init__(self):
        super().__init__("sorter")
        self.reached = []
        self.start_run(EventLoop(),
                       lambda q, a: self.reached.append(("forwarded", a)))

    def _advanced(self, state):
        return 1.0

    def _expired(self, state):
        self.reached.append(("expired",))

    def _flawed(self, state, source, reason, failure):
        self.reached.append(("flawed", reason, failure))

    def _clean(self, state, source, responses):
        self.reached.append(("clean", responses))

    def _absorbed(self, chunk):
        self.reached.append(("absorbed", chunk))


class TestTheAttemptEngine:
    def admit(self, sut):
        query = Query(id=1, samples=(QuerySample(id=1, index=101),
                                     QuerySample(id=2, index=102)))
        state = sut._inflight[query.id] = Attempt(query, 0.0)
        sut._arm(state, 1.0)
        return query

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_any_well_formed_sequence_is_clean(self, spelling):
        sut = Sorter()
        query = self.admit(sut)
        arrival = SPELLINGS[spelling](answers(query))
        sut._deliver(None, query.id, arrival)
        assert sut.reached == [("clean", arrival)]

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_any_short_sequence_is_flawed(self, spelling):
        sut = Sorter()
        query = self.admit(sut)
        sut._deliver(None, query.id, SPELLINGS[spelling](answers(query)[:1]))
        (hook, reason, failure), = sut.reached
        assert hook == "flawed" and failure is None
        assert "expected 2 responses, got 1" in reason

    @pytest.mark.parametrize("chunk_type", [StreamChunk, TaggedChunk])
    def test_chunks_are_screened_by_sequence_whatever_their_class(
            self, chunk_type):
        sut = Sorter()
        query = self.admit(sut)
        first, gap = chunk_type(query.id, 0), chunk_type(query.id, 4)
        sut._deliver(None, query.id, first)
        sut._deliver(None, query.id, gap)
        sut._deliver(None, 99, chunk_type(99, 0))  # nobody asked
        assert sut.reached == [
            ("forwarded", first), ("absorbed", True), ("absorbed", True)]

    @pytest.mark.parametrize("failure_type", [QueryFailure, TypedFailure])
    def test_failures_are_flaws_whatever_their_class(self, failure_type):
        sut = Sorter()
        query = self.admit(sut)
        failure = failure_type("backend died")
        sut._deliver(None, query.id, failure)
        sut._deliver(None, 99, failure_type("nobody asked"))
        assert sut.reached == [
            ("flawed", "attempt failed: backend died", failure),
            ("absorbed", False)]
