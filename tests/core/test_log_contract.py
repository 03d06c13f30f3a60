"""What the query log says about a run, pinned against the log as first
shipped.

``ShippedQueryLog`` below is ``repro.core.logging.QueryLog`` as it was
when every resolved query stayed a whole ``QueryRecord`` in one dict,
kept verbatim (only renamed) as the oracle, with the shipped
``run_fingerprint`` beside it.  :class:`TeedLog` is the log under test
with the oracle fed the same calls: every ``record_*`` /
``observe_completion`` call must return (or raise) the same on both
sides, and :func:`assert_same` then compares every view - ``records()``
(length, iteration, indexing, slicing), ``completed_records()``,
``failed_records()``, ``outstanding_records()``, ``record_for`` of every
id and of ids never issued, ``to_jsonl()``, ``anomaly_count``, the
counters and anomaly lists - and ``run_fingerprint`` against the shipped
formula over the oracle's records.

The cases: the stacks of ``test_run_hygiene.CATALOGUE``, the faulty
shapes of ``test_wrapper_contract.py`` (plain and streamed, at their
pinned length and past two sweep blocks), a streamed run, the session
fleet, Server runs shorter and longer than ``SWEEP_BLOCK``, the other
scenarios, kept and sampled responses, a watchdog-stopped run and a run
whose first query answers last; and hand-built logs with duplicate,
unsolicited and late-chunk traffic, ids issued out of order, a stuck
query at the front, odd queries and integer times, and logs whose first
failure, kept response, stream, session tag, query of several samples
or odd query arrives only after records have retired, and a log whose
queries go from one sample to 48 and back.  Each case's metrics
and verdict (``compute_metrics`` / ``validate_run``) are also pinned by
digest in ``log_contract.json``; re-record after a deliberate change
with ``PYTHONPATH=src python -m tests.core.test_log_contract``.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro.core.logging as log_module
from repro.bounds import UNIT, check_range
from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.core import loadgen
from repro.core.logging import QueryLog
from repro.core.metrics import compute_metrics
from repro.core.query import (Query, QueryRecord, QuerySample,
                              QuerySampleResponse, SessionTurn, StreamChunk,
                              sample_id_of)
from repro.core.scenarios import DriverStats
from repro.core.sut import SutBase
from repro.core.validation import validate_run
from repro.durability import run_fingerprint
from repro.harness.netbench import SyntheticQSL
from repro.harness.stack import build
from repro.metrics import MetricsRegistry
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL
from tests.core.test_run_hygiene import CATALOGUE, small_sessions
from tests.integration.test_rerun_contract import FLEET_SPEC, session_settings
from tests.integration.test_wrapper_contract import SHAPES, run_settings

RECORDED = Path(__file__).with_name("log_contract.json")
#: The sweep block where the log has one; the sizes below straddle it.
BLOCK = getattr(log_module, "SWEEP_BLOCK", 1024)


# -- the oracle: the log and fingerprint as first shipped -----------------------

#: ``response.sample_id`` read in C, for the referee's id-set check.
_RESPONSE_ID = attrgetter("sample_id")


class ShippedQueryLog:
    """Append-only log of query lifecycles for one LoadGen run.

    The log is also the referee's misbehavior detector: completions for
    unknown queries, duplicate completions, and malformed response sets
    are recorded as anomalies (``unsolicited_responses``,
    ``duplicate_completions``, failed records) via
    :meth:`observe_completion` so the run can terminate with a precise
    INVALID verdict instead of crashing mid-flight.  The strict
    :meth:`record_completion` API, which raises on the same conditions,
    remains for callers that build logs by hand.
    """

    def __init__(self, log_sample_probability: float = 0.0, seed: int = 0) -> None:
        check_range("log_sample_probability", log_sample_probability, UNIT)
        #: query id -> record; a dict keeps insertion order, which is
        #: issue order.
        self._records: Dict[int, QueryRecord] = {}
        #: Records that reached a terminal state (completed or failed),
        #: kept incrementally so :attr:`outstanding` is O(1) - it is
        #: polled per event by the janitor, the watchdog, the snapshot
        #: sampler, and the ``loadgen_queries_outstanding`` gauge.
        self._resolved_count = 0
        #: How many of those resolved as failures.
        self.failed_count = 0
        self.log_sample_probability = log_sample_probability
        self._rng = np.random.default_rng(seed)
        #: Optional lifecycle tap, called as ``observer(event, query,
        #: time, payload)`` with event ``"issued"`` (payload None),
        #: ``"completed"`` (payload: response list) or ``"failed"``
        #: (payload: reason) *after* the log recorded the event.  The
        #: write-ahead run journal (``repro.durability``) attaches here;
        #: the hook costs one None-check per event when unused.
        self.observer = None
        #: Count of issued samples (not queries) for throughput metrics.
        self.issued_samples = 0
        #: (query_id, time) of completions that arrived more than once.
        self.duplicate_completions: List[Tuple[int, float]] = []
        #: (query_id, time) of completions for queries never issued.
        self.unsolicited_responses: List[Tuple[int, float]] = []
        #: (query_id, time, reason) of chunk deliveries that violated
        #: stream ordering: duplicate sequence numbers, gaps, chunks
        #: after the final chunk, chunks timestamped before issue.
        self.stream_chunk_anomalies: List[Tuple[int, float, str]] = []
        #: (query_id, time) of queries that completed while their stream
        #: was still open (chunks seen, but never a ``last=True`` chunk):
        #: truncated streams.
        self.truncated_streams: List[Tuple[int, float]] = []
        #: Accepted chunk / token totals across all records.
        self.stream_chunks = 0
        self.stream_tokens = 0

    def record_issue(self, query: Query, issue_time: float,
                     scheduled_time: Optional[float] = None) -> None:
        if query.id in self._records:
            raise ValueError(f"query {query.id} issued twice")
        self._records[query.id] = QueryRecord(
            query, issue_time, scheduled_time=scheduled_time
        )
        self.issued_samples += len(query.samples)
        if self.observer is not None:
            self.observer("issued", query, issue_time, None)

    def record_completion(
        self,
        query: Query,
        completion_time: float,
        responses: List[QuerySampleResponse],
        keep_responses: bool,
    ) -> None:
        record = self._records.get(query.id)
        if record is None:
            raise ValueError(f"completion for unknown query {query.id}")
        if (record.completion_time is not None
                or record.failure_reason is not None):
            raise ValueError(f"query {query.id} completed twice")
        if completion_time < record.issue_time:
            raise ValueError(
                f"query {query.id} completed before it was issued "
                f"({completion_time} < {record.issue_time})"
            )
        if len(responses) != query.sample_count:
            raise ValueError(
                f"query {query.id}: expected {query.sample_count} responses, "
                f"got {len(responses)}"
            )
        record.completion_time = completion_time
        self._resolved_count += 1
        if keep_responses or (
            self.log_sample_probability > 0.0
            and self._rng.random() < self.log_sample_probability
        ):
            record.responses = list(responses)
        if self.observer is not None:
            self.observer("completed", query, completion_time, responses)

    # -- tolerant referee path -------------------------------------------------

    def observe_completion(
        self,
        query: Query,
        completion_time: float,
        responses: List[QuerySampleResponse],
        keep_responses: bool,
    ) -> str:
        """Record a completion, classifying misbehavior instead of raising.

        Returns the terminal classification:

        * ``"completed"``   - a clean completion, recorded as usual;
        * ``"failed"``      - the query resolved, but its response set was
          malformed (wrong count, wrong sample ids, time before issue);
        * ``"duplicate"``   - the query was already resolved; noted in
          :attr:`duplicate_completions`, record untouched;
        * ``"unsolicited"`` - no such query was ever issued; noted in
          :attr:`unsolicited_responses`.
        """
        try:
            record = self._records[query.id]
        except KeyError:
            self.unsolicited_responses.append((query.id, completion_time))
            return "unsolicited"
        if (record.completion_time is not None
                or record.failure_reason is not None):
            self.duplicate_completions.append((query.id, completion_time))
            return "duplicate"
        if completion_time < record.issue_time:
            return self.record_failure(
                query, completion_time,
                f"completed at {completion_time} before issue at "
                f"{record.issue_time}",
            )
        samples = query.samples
        expected = len(samples)
        if len(responses) != expected:
            return self.record_failure(
                query, completion_time,
                f"expected {expected} responses, got {len(responses)}",
            )
        # One sample (Server, SingleStream) that names the right id is
        # the whole check; anything else compares as sets - the order of
        # a response set is free, its members are not.
        if expected != 1 or responses[0].sample_id != samples[0].id:
            expected_ids = set(map(sample_id_of, samples))
            got_ids = set(map(_RESPONSE_ID, responses))
            if got_ids != expected_ids:
                return self.record_failure(
                    query, completion_time,
                    f"{len(got_ids - expected_ids)} responses name sample "
                    "ids that are not part of the query",
                )
        if record.chunk_count > 0 and not record.stream_closed:
            # The stream never delivered its final chunk: a truncated
            # stream.  The completion is still recorded (the terminal
            # outcome did arrive) but the run carries the misbehavior.
            self.truncated_streams.append((query.id, completion_time))
        record.completion_time = completion_time
        self._resolved_count += 1
        if keep_responses or (
            self.log_sample_probability > 0.0
            and self._rng.random() < self.log_sample_probability
        ):
            record.responses = list(responses)
        if self.observer is not None:
            self.observer("completed", query, completion_time, responses)
        return "completed"

    def record_chunk(self, query: Query, time: float, chunk: StreamChunk) -> str:
        """Record one streamed chunk, classifying misbehavior.

        Returns the classification:

        * ``"chunk"``       - in-sequence chunk, timing recorded;
        * ``"restart"``     - ``seq == 0`` after prior progress: the
          stream restarted (a retry or reroute reissued the query).
          Allowed - the attempt's timing resets so TTFT/TPOT reflect
          the answer the client actually received - but counted in
          ``QueryRecord.stream_restarts``;
        * ``"anomaly"``     - out-of-order / duplicate / post-final /
          pre-issue chunk, noted in :attr:`stream_chunk_anomalies`;
        * ``"late"``        - chunk for an already-resolved query, also
          noted in :attr:`stream_chunk_anomalies`;
        * ``"unsolicited"`` - chunk for a query never issued.
        """
        try:
            record = self._records[query.id]
        except KeyError:
            self.unsolicited_responses.append((query.id, time))
            return "unsolicited"
        if (record.completion_time is not None
                or record.failure_reason is not None):
            self.stream_chunk_anomalies.append(
                (query.id, time,
                 f"chunk seq {chunk.seq} arrived after the query resolved")
            )
            return "late"
        if time < record.issue_time:
            self.stream_chunk_anomalies.append(
                (query.id, time,
                 f"chunk seq {chunk.seq} timestamped before issue")
            )
            return "anomaly"
        restarted = chunk.seq == 0 and record.chunk_count > 0
        if restarted:
            record.stream_restarts += 1
            record.first_chunk_time = None
            record.last_chunk_time = None
            record.chunk_count = 0
            record.token_count = 0
            record.stream_closed = False
        elif record.stream_closed:
            self.stream_chunk_anomalies.append(
                (query.id, time,
                 f"chunk seq {chunk.seq} arrived after the final chunk")
            )
            return "anomaly"
        elif chunk.seq != record.chunk_count:
            kind = "duplicate" if chunk.seq < record.chunk_count else "out-of-order"
            self.stream_chunk_anomalies.append(
                (query.id, time,
                 f"{kind} chunk seq {chunk.seq} "
                 f"(expected {record.chunk_count})")
            )
            return "anomaly"
        if record.chunk_count == 0:
            record.first_chunk_time = time
        record.last_chunk_time = time
        record.chunk_count += 1
        record.token_count += chunk.token_count
        if chunk.last:
            record.stream_closed = True
        self.stream_chunks += 1
        self.stream_tokens += chunk.token_count
        if self.observer is not None:
            self.observer("chunk", query, time, chunk)
        return "restart" if restarted else "chunk"

    def record_failure(self, query: Query, time: float, reason: str) -> str:
        """Mark an issued query as failed (it will never complete cleanly).

        Classifies like :meth:`observe_completion`: failures for unknown
        or already-resolved queries are themselves anomalies.
        """
        try:
            record = self._records[query.id]
        except KeyError:
            self.unsolicited_responses.append((query.id, time))
            return "unsolicited"
        if (record.completion_time is not None
                or record.failure_reason is not None):
            self.duplicate_completions.append((query.id, time))
            return "duplicate"
        record.failure_reason = reason
        record.failure_time = time
        self._resolved_count += 1
        self.failed_count += 1
        if self.observer is not None:
            self.observer("failed", query, time, reason)
        return "failed"

    # -- views ----------------------------------------------------------------

    def records(self) -> List[QueryRecord]:
        """All records in issue order."""
        return list(self._records.values())

    def record_for(self, query_id: int) -> Optional[QueryRecord]:
        """The record for one query id, or None if never issued."""
        return self._records.get(query_id)

    def completed_records(self) -> List[QueryRecord]:
        """Cleanly completed records (failed queries are excluded)."""
        return [r for r in self._records.values()
                if r.completion_time is not None
                and r.failure_reason is None]

    def failed_records(self) -> List[QueryRecord]:
        """Records that resolved as failures (malformed, retries spent)."""
        return [r for r in self._records.values()
                if r.failure_reason is not None]

    def outstanding_records(self) -> List[QueryRecord]:
        """Issued queries that never reached a terminal state."""
        return [r for r in self._records.values()
                if r.completion_time is None and r.failure_reason is None]

    def has_completions(self) -> bool:
        """Whether any query completed cleanly (stops at the first)."""
        for record in self._records.values():
            if (record.completion_time is not None
                    and record.failure_reason is None):
                return True
        return False

    def latencies(self) -> List[float]:
        return [r.completion_time - r.issue_time
                for r in self.completed_records()]

    @property
    def query_count(self) -> int:
        return len(self._records)

    @property
    def outstanding(self) -> int:
        return len(self._records) - self._resolved_count

    @property
    def completed_count(self) -> int:
        """Queries that completed cleanly (resolved and not failed)."""
        return self._resolved_count - self.failed_count

    @property
    def anomaly_count(self) -> int:
        """Total misbehavior observations (duplicates + unsolicited +
        failed records + stream anomalies)."""
        return (
            len(self.duplicate_completions)
            + len(self.unsolicited_responses)
            + len(self.failed_records())
            + len(self.stream_chunk_anomalies)
            + len(self.truncated_streams)
        )

    def logged_responses(self) -> Dict[int, object]:
        """Map sample id -> response payload for records that kept them."""
        out: Dict[int, object] = {}
        for record in self.records():
            if record.responses is None:
                continue
            for response in record.responses:
                out[response.sample_id] = response.data
        return out

    def sample_index_map(self) -> Dict[int, int]:
        """Map of every issued sample id to its data set index."""
        out: Dict[int, int] = {}
        for record in self.records():
            for sample in record.query.samples:
                out[sample.id] = sample.index
        return out

    # -- serialization (the "log files" of Fig. 3 step 7) ----------------------

    def to_jsonl(self) -> str:
        """Serialize the trace to JSON lines, omitting raw payloads that
        are not JSON-serializable (they are replaced by ``repr``)."""
        lines = []
        for record in self.records():
            entry = {
                "query_id": record.query.id,
                "sample_indices": list(record.query.sample_indices),
                "sample_ids": [s.id for s in record.query.samples],
                "issue_time": record.issue_time,
                "scheduled_time": record.scheduled_time,
                "completion_time": record.completion_time,
            }
            if record.query.session is not None:
                turn = record.query.session
                entry["session_id"] = turn.session_id
                entry["turn_index"] = turn.turn_index
                entry["turn_count"] = turn.turn_count
                entry["prefix_tokens"] = turn.prefix_tokens
            if record.failed:
                entry["failure_reason"] = record.failure_reason
                entry["failure_time"] = record.failure_time
            if record.streamed:
                entry["first_chunk_time"] = record.first_chunk_time
                entry["last_chunk_time"] = record.last_chunk_time
                entry["chunk_count"] = record.chunk_count
                entry["token_count"] = record.token_count
                entry["stream_closed"] = record.stream_closed
                entry["stream_restarts"] = record.stream_restarts
            if record.responses is not None:
                entry["responses"] = [
                    _jsonable(r.data) for r in record.responses
                ]
            lines.append(json.dumps(entry))
        return "\n".join(lines)


def _jsonable(value: object) -> object:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def shipped_fingerprint(result) -> tuple:
    """Order-stable digest of everything a run result asserts.

    Two runs are "identical" for resume purposes when their fingerprints
    match: every query's identity, sample ids, issue/completion/failure
    times, failure reasons, logged response payloads, the computed
    metrics, and the validity verdict.
    """
    records = tuple(
        (
            r.query.id,
            tuple(s.id for s in r.query.samples),
            tuple(r.query.sample_indices),
            r.issue_time,
            r.scheduled_time,
            r.completion_time,
            r.failure_time,
            r.failure_reason,
            (tuple((resp.sample_id, repr(resp.data))
                   for resp in r.responses)
             if r.responses is not None else None),
        )
        for r in result.log.records()
    )
    return (
        records,
        result.metrics.primary_metric,
        result.metrics.query_count,
        result.metrics.sample_count,
        round(result.metrics.latency_p90, 12),
        round(result.metrics.latency_p99, 12),
        result.validity.valid,
        tuple(result.validity.reasons),
    )


# -- the log under test, teed to the oracle -------------------------------------

def _outcome(call, *args, **kwargs):
    try:
        return "returned", call(*args, **kwargs)
    except ValueError as error:
        return "raised", str(error)


class TeedLog(QueryLog):
    """The log under test; every recording call also goes to a
    :class:`ShippedQueryLog` and must end the same way there."""

    def __init__(self, log_sample_probability: float = 0.0,
                 seed: int = 0) -> None:
        super().__init__(log_sample_probability, seed)
        self.oracle = ShippedQueryLog(log_sample_probability, seed)
        self._inside = False


def _teed(name):
    def method(self, *args, **kwargs):
        current = getattr(QueryLog, name)
        if self._inside:  # the log calling itself (a malformed completion)
            return current(self, *args, **kwargs)
        self._inside = True
        try:
            want = _outcome(getattr(self.oracle, name), *args, **kwargs)
            got = _outcome(current, self, *args, **kwargs)
        finally:
            self._inside = False
        assert got == want, (name, args, got, want)
        if got[0] == "raised":
            raise ValueError(got[1])
        return got[1]
    return method


for _name in ("record_issue", "record_completion", "observe_completion",
              "record_chunk", "record_failure"):
    setattr(TeedLog, _name, _teed(_name))


def assert_same(log: TeedLog) -> None:
    """Every view of ``log`` equals the oracle's."""
    oracle = log.oracle
    want = oracle.records()
    records = log.records()
    n = len(want)
    assert len(records) == n
    assert list(records) == want
    for at in {0, 1, n // 3, n // 2, n - 2, n - 1, -1, -n}:
        if -n <= at < n:
            assert records[at] == want[at]
    assert list(records[1:n // 2]) == want[1:n // 2]
    assert list(records[-3:]) == want[-3:]
    assert log.completed_records() == oracle.completed_records()
    assert log.failed_records() == oracle.failed_records()
    assert log.outstanding_records() == oracle.outstanding_records()
    ids = [r.query.id for r in want]
    probes = ids + [min(ids, default=0) - 1, max(ids, default=0) + 1, 0]
    for qid in probes:
        assert log.record_for(qid) == oracle.record_for(qid), qid
    assert log.to_jsonl() == oracle.to_jsonl()
    assert log.anomaly_count == oracle.anomaly_count
    assert log.has_completions() == oracle.has_completions()
    assert log.latencies() == oracle.latencies()
    assert repr(log.logged_responses()) == repr(oracle.logged_responses())
    assert log.sample_index_map() == oracle.sample_index_map()
    for name in ("query_count", "outstanding", "completed_count",
                 "failed_count", "issued_samples", "duplicate_completions",
                 "unsolicited_responses", "stream_chunk_anomalies",
                 "truncated_streams", "stream_chunks", "stream_tokens"):
        assert getattr(log, name) == getattr(oracle, name), name


def assert_same_result(result) -> None:
    assert_same(result.log)
    shipped = SimpleNamespace(log=result.log.oracle, metrics=result.metrics,
                              validity=result.validity)
    assert repr(run_fingerprint(result)) == repr(shipped_fingerprint(shipped))


def verdict_digest(metrics, validity) -> str:
    return hashlib.sha256(repr((
        metrics, validity.valid, validity.reasons, validity.details,
    )).encode()).hexdigest()


# -- runs ---------------------------------------------------------------------

def server_settings(queries, **overrides):
    fields = dict(
        scenario=Scenario.SERVER, server_target_qps=1000.0,
        server_latency_bound=0.01, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=600.0, seed=4)
    fields.update(overrides)
    return TestSettings(**fields)


class HoldFirst(SutBase):
    """Answers every query after ``latency``, except query 1: held until
    ``release`` seconds in (``None``: never answered)."""

    def __init__(self, latency: float, release: Optional[float]) -> None:
        super().__init__("hold-first")
        self.latency = latency
        self.release = release

    def issue_query(self, query) -> None:
        responses = [QuerySampleResponse(s.id, s.index)
                     for s in query.samples]
        if query.id != 1:
            delay = self.latency
        elif self.release is None:
            return
        else:
            delay = self.release
        self.loop.schedule_after(
            delay, partial(self.complete, query, responses))


def _streamed(latency=0.5e-3, seed=1):
    return StreamingSUT(EchoSUT(latency=latency),
                        StreamModel(min_tokens=2, max_tokens=6, seed=seed))


def run_stack(spec, seed, settings, **kwargs):
    """A built stack's run with its registry attached (the driver then
    reads streamed records back for its TTFT / TPOT histograms)."""
    stack = build(spec, seed, MetricsRegistry())
    return stack.run(SyntheticQSL(), settings, registry=stack.registry,
                     **kwargs)


RUNS = {
    "server-short": lambda: run_benchmark(
        EchoSUT(latency=0.5e-3), EchoQSL(), server_settings(BLOCK // 3)),
    "server-long": lambda: run_benchmark(
        EchoSUT(latency=0.5e-3), EchoQSL(), server_settings(3 * BLOCK + 17)),
    "server-sampled-responses": lambda: run_benchmark(
        EchoSUT(latency=0.5e-3), EchoQSL(), server_settings(2 * BLOCK + 3),
        log_sample_probability=0.25),
    "streamed": lambda: run_benchmark(
        _streamed(), EchoQSL(), server_settings(2 * BLOCK + 5)),
    "streamed-tight-slo": lambda: run_benchmark(
        _streamed(seed=3), EchoQSL(), server_settings(
            BLOCK + 40, ttft_target_ns=2_500_000, tpot_target_ns=500_000)),
    "single-stream": lambda: run_benchmark(
        EchoSUT(latency=2e-3), EchoQSL(), TestSettings(
            scenario=Scenario.SINGLE_STREAM, min_query_count=BLOCK + 9,
            min_duration=0.0, seed=5)),
    "multistream": lambda: run_benchmark(
        EchoSUT(latency=2e-3), EchoQSL(), TestSettings(
            scenario=Scenario.MULTI_STREAM, multistream_samples_per_query=4,
            multistream_interval=0.005,
            min_query_count=BLOCK + 30, min_duration=0.0, seed=6)),
    "offline": lambda: run_benchmark(
        EchoSUT(latency=2e-3), EchoQSL(), TestSettings(
            scenario=Scenario.OFFLINE, offline_sample_count=3 * BLOCK + 5,
            min_duration=0.0, seed=7)),
    "accuracy": lambda: run_benchmark(
        EchoSUT(latency=1e-3), EchoQSL(total=BLOCK + 77), TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
            min_duration=0.0, seed=8)),
    "watchdog-first-never-answers": lambda: run_benchmark(
        HoldFirst(1e-3, None), EchoQSL(), server_settings(
            2 * BLOCK, watchdog_timeout=2.5 * BLOCK / 1000.0)),
    "first-answers-last": lambda: run_benchmark(
        HoldFirst(1e-3, 2.5 * BLOCK / 1000.0), EchoQSL(),
        server_settings(2 * BLOCK)),
    "session-fleet": lambda: run_stack(FLEET_SPEC, 0, session_settings(0),
                                       snapshot_period=0.05),
}
for _name, _spec in CATALOGUE.items():
    RUNS[f"catalogue/{_name}"] = partial(run_stack, _spec, 3, small_sessions())
for _shape, _make in SHAPES.items():
    for _streamed_shape in (False, True):
        for _queries in (150, 2 * BLOCK + 50):
            RUNS[f"shape/{_shape}/{'streamed' if _streamed_shape else 'plain'}"
                 f"/{_queries}"] = partial(
                lambda make, streamed, queries: run_benchmark(
                    make(0, streamed), SyntheticQSL(),
                    run_settings(0, queries)),
                _make, _streamed_shape, _queries)


@pytest.fixture
def teed(monkeypatch):
    monkeypatch.setattr(loadgen, "QueryLog", TeedLog)


def run_case(name):
    result = RUNS[name]()
    assert isinstance(result.log, TeedLog)
    return result


# -- hand-built logs ------------------------------------------------------------

def _query(qid, indices, first_sample=None, issue_time=0.0, contiguous=True,
           session=None):
    first = qid * 10 if first_sample is None else first_sample
    samples = tuple(QuerySample(first + i, index)
                    for i, index in enumerate(indices))
    return Query(qid, samples, issue_time, contiguous, session)


def _answer(query, data=None):
    return [QuerySampleResponse(s.id, s.index if data is None else data)
            for s in query.samples]


def _issue(log, qid, at, **kwargs):
    query = _query(qid, [qid % 97], issue_time=at, **kwargs)
    log.record_issue(query, at, scheduled_time=at - 1e-4)
    return query


def duplicates(log):
    queries = [_issue(log, qid, qid * 1e-3) for qid in range(1, 2 * BLOCK + 1)]
    for query in queries:
        log.observe_completion(query, query.issue_time + 2e-3,
                               _answer(query), keep_responses=False)
    for query in queries[::7]:  # retired by now, and the tail
        log.observe_completion(query, 9.0, _answer(query),
                               keep_responses=False)
        log.record_failure(query, 9.5, "late failure")
    yield "resolved"


def unsolicited(log):
    queries = [_issue(log, qid, qid * 1e-3)
               for qid in range(5, 2 * BLOCK + 5, 2)]
    for query in queries:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    for qid in (1, 2, 6, BLOCK, BLOCK + 1, 3 * BLOCK, 10 ** 9):
        ghost = _query(qid, [3])
        log.observe_completion(ghost, 7.0, _answer(ghost),
                               keep_responses=False)
        log.record_chunk(ghost, 7.1, StreamChunk(qid, 0))
        log.record_failure(ghost, 7.2, "ghost")
    yield "resolved"


def late_chunks(log):
    queries = [_issue(log, qid, qid * 1e-3) for qid in range(1, 2 * BLOCK + 1)]
    for query in queries:
        for seq in range(3):
            log.record_chunk(query, query.issue_time + (seq + 1) * 1e-4,
                             StreamChunk(query.id, seq, 2, seq == 2))
        log.observe_completion(query, query.issue_time + 5e-4,
                               _answer(query), keep_responses=False)
    for query in queries[::5]:
        log.record_chunk(query, 8.0, StreamChunk(query.id, 3, 1))
    yield "resolved"


def out_of_order_ids(log):
    rng = random.Random(11)
    ids = list(range(1, 3 * BLOCK + 1))
    rng.shuffle(ids)
    queries = [_issue(log, qid, at * 1e-3) for at, qid in enumerate(ids)]
    yield "issued"
    for query in queries:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    yield "resolved"
    for query in queries[::11]:
        log.observe_completion(query, 9.0, _answer(query),
                               keep_responses=False)
        log.record_chunk(query, 9.1, StreamChunk(query.id, 0))
        with pytest.raises(ValueError):
            log.record_issue(query, 9.2)
        with pytest.raises(ValueError):
            log.record_completion(query, 9.3, _answer(query),
                                  keep_responses=False)
    for qid in (0, 3 * BLOCK + 1):
        ghost = _query(qid, [1])
        log.observe_completion(ghost, 9.4, _answer(ghost),
                               keep_responses=False)
    yield "probed"


def stuck_front(log):
    queries = [_issue(log, qid, qid * 1e-3) for qid in range(1, 3 * BLOCK + 1)]
    for query in queries[1:]:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    yield "first-stuck"
    log.observe_completion(queries[0], 5.0, _answer(queries[0]),
                           keep_responses=False)
    more = [_issue(log, qid, 5.0 + qid * 1e-3)
            for qid in range(3 * BLOCK + 1, 4 * BLOCK + 10)]
    for query in more:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    yield "first-answered"


def mixed(log):
    """Failures, malformed answers, kept responses, sessions, streams,
    restarts, truncated streams and odd queries, interleaved."""
    rng = random.Random(5)
    queries = []
    for qid in range(1, 3 * BLOCK + 1):
        at = qid * 1e-3
        session = (SessionTurn(qid // 4, qid % 4, 4, 16 * (qid % 4), 8, 4)
                   if qid % 3 == 0 else None)
        odd_time = at + 1.0 if qid % 50 == 0 else at
        query = _query(qid, [qid % 13] * (1 + qid % 3),
                       first_sample=5 * qid, issue_time=odd_time,
                       contiguous=qid % 70 != 0, session=session)
        log.record_issue(query, at,
                         scheduled_time=None if qid % 2 else at - 1e-4)
        queries.append(query)
    for query in queries:
        qid, at = query.id, query.id * 1e-3
        if qid % 4 == 0:
            for seq in range(2 + qid % 3):
                if qid % 40 == 0 and seq == 1:
                    log.record_chunk(query, at + 1e-5, StreamChunk(qid, 0, 1))
                log.record_chunk(query, at + (seq + 1) * 1e-4,
                                 StreamChunk(qid, seq, 1 + seq, False))
            if qid % 8 == 0:
                log.record_chunk(query, at + 9e-4,
                                 StreamChunk(qid, 2 + qid % 3, 1, True))
        kind = rng.random()
        done = at + 1e-3 + rng.random() * 1e-3
        if kind < 0.05:
            log.record_failure(query, done, f"reason {qid}")
        elif kind < 0.08:
            log.observe_completion(query, done, _answer(query)[:-1] + [
                QuerySampleResponse(-1, None)], keep_responses=False)
        elif kind < 0.10:
            log.observe_completion(query, at - 1.0, _answer(query),
                                   keep_responses=False)
        else:
            log.observe_completion(query, done, _answer(query, [qid]),
                                   keep_responses=qid % 6 == 0)
        if qid % 400 == 0:
            yield f"at-{qid}"
    yield "resolved"


def integer_times(log):
    queries = []
    for qid in range(1, 2 * BLOCK + 3):
        query = _query(qid, [qid % 5], issue_time=qid)
        log.record_issue(query, qid, scheduled_time=qid)
        queries.append(query)
    for query in queries:
        log.observe_completion(query, query.id + 2, _answer(query),
                               keep_responses=query.id % 9 == 0)
    yield "resolved"


def strict_path(log):
    queries = [_query(qid, [1, 2]) for qid in range(1, 2 * BLOCK + 1)]
    for query in queries:
        log.record_issue(query, 1.0)
    for query in queries:
        log.record_completion(query, 2.0, _answer(query),
                              keep_responses=query.id % 3 == 0)
    for query in queries[::9]:
        for call in (
                lambda: log.record_completion(query, 3.0, _answer(query),
                                              keep_responses=False),
                lambda: log.record_issue(query, 3.0)):
            with pytest.raises(ValueError):
                call()
    fresh = _query(2 * BLOCK + 1, [1, 2])
    log.record_issue(fresh, 5.0)
    for responses, time in ((_answer(fresh)[:1], 6.0), (_answer(fresh), 4.0)):
        with pytest.raises(ValueError):
            log.record_completion(fresh, time, responses,
                                  keep_responses=False)
    with pytest.raises(ValueError):
        log.record_completion(_query(10 ** 6, [1]), 6.0, [],
                              keep_responses=False)
    yield "resolved"


def short(log):
    queries = [_issue(log, qid, qid * 1e-3) for qid in range(1, 40)]
    yield "issued"
    for query in queries[3:]:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    yield "partly-resolved"


def _plain_blocks(log):
    """Two blocks of plain one-sample completions, retired by the time
    this returns; the last id issued."""
    queries = [_issue(log, qid, qid * 1e-3) for qid in range(1, 2 * BLOCK + 1)]
    for query in queries:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    return 2 * BLOCK


def late_carriers(log):
    """The first failure, kept response, stream (with a restart), session
    tag and query of three samples arrive only after plain records have
    retired."""
    last = _plain_blocks(log)
    yield "plain-retired"
    queries = []
    for qid in range(last + 1, last + 2 * BLOCK + 1):
        at = qid * 1e-3
        session = (SessionTurn(qid // 4, qid % 4, 4, 16 * (qid % 4), 8, 4)
                   if qid % 5 == 0 else None)
        query = _query(qid, [qid % 13] * (3 if qid % 7 == 0 else 1),
                       first_sample=5 * qid, issue_time=at, session=session)
        log.record_issue(query, at, scheduled_time=at - 1e-4)
        queries.append(query)
    yield "carriers-issued"
    for count, query in enumerate(queries, 1):
        qid, at = query.id, query.id * 1e-3
        if qid % 4 == 0:
            seqs = [0, 1, 0, 1, 2] if qid % 8 == 0 else [0, 1, 2]
            for step, seq in enumerate(seqs):
                log.record_chunk(query, at + (step + 1) * 1e-4, StreamChunk(
                    qid, seq, 1 + seq, step == len(seqs) - 1))
        if qid % 11 == 0:
            log.record_failure(query, at + 8e-4, f"reason {qid}")
        else:
            log.observe_completion(query, at + 9e-4, _answer(query, [qid]),
                                   keep_responses=qid % 6 == 0)
        if count % 700 == 0:
            yield f"carriers-{count}"
    yield "resolved"


def late_stop(log):
    """A ``Query`` that stops retirement arrives after plain records have
    retired; the log keeps what follows whole."""
    last = _plain_blocks(log)
    yield "plain-retired"
    queries = [_issue(log, qid, qid * 1e-3, contiguous=qid != last + 3)
               for qid in range(last + 1, last + BLOCK + 100)]
    for query in queries:
        log.observe_completion(query, query.issue_time + 1e-3,
                               _answer(query), keep_responses=False)
    yield "resolved"
    for qid in (1, last, last + 3, last + 50):
        query = _query(qid, [qid % 97], issue_time=qid * 1e-3)
        log.observe_completion(query, 9.0, _answer(query),
                               keep_responses=False)
        log.record_chunk(query, 9.1, StreamChunk(qid, 0))
        with pytest.raises(ValueError):
            log.record_issue(query, 9.2)
    yield "probed"


def mixed_widths(log):
    """One-sample queries, then queries of 48 samples, then one-sample
    queries again, each answered three issues later: a block counted in
    samples ends inside a wide query."""
    widths = [1] * (BLOCK + 100) + [48] * 70 + [1] * (BLOCK + 50)
    pending = []
    for qid, width in enumerate(widths, 1):
        at = qid * 1e-3
        query = _query(qid, [(qid + i) % 97 for i in range(width)],
                       first_sample=100 * qid, issue_time=at)
        log.record_issue(query, at, scheduled_time=at - 1e-4)
        pending.append(query)
        if len(pending) > 3:
            done = pending.pop(0)
            if done.id % 29 == 0:
                log.record_failure(done, at, f"reason {done.id}")
            else:
                log.observe_completion(done, at, _answer(done),
                                       keep_responses=done.id % 31 == 0)
        if qid in (BLOCK + 100, BLOCK + 170):
            yield f"widths-{qid}"
    for done in pending:
        log.observe_completion(done, done.issue_time + 4e-3, _answer(done),
                               keep_responses=False)
    yield "resolved"


BUILT = {
    "mixed-widths": mixed_widths,
    "late-carriers": late_carriers,
    "late-stop": late_stop,
    "duplicates": duplicates,
    "unsolicited": unsolicited,
    "late-chunks": late_chunks,
    "out-of-order-ids": out_of_order_ids,
    "stuck-front": stuck_front,
    "mixed": mixed,
    "integer-times": integer_times,
    "strict-path": strict_path,
    "short": short,
}

#: The verdict settings per hand-built log: the Server tail rule with
#: token targets, and the session rule for the log that tags sessions.
BUILT_SETTINGS = {
    "late-carriers": TestSettings(
        scenario=Scenario.SESSION, server_latency_bound=1.5e-3,
        session_count=1, min_duration=0.0, ttft_target_ns=300_000,
        tpot_target_ns=80_000),
    "mixed": TestSettings(
        scenario=Scenario.SESSION, server_latency_bound=1.5e-3,
        session_count=1, min_duration=0.0, ttft_target_ns=300_000,
        tpot_target_ns=80_000),
}
DEFAULT_BUILT_SETTINGS = server_settings(
    1, server_latency_bound=1.5e-3, ttft_target_ns=250_000,
    tpot_target_ns=120_000)


def built_stages(name):
    """``(stage, log, verdict digest)`` after each stage of a
    hand-built log."""
    log = TeedLog(seed=3)
    settings = BUILT_SETTINGS.get(name, DEFAULT_BUILT_SETTINGS)
    for stage in BUILT[name](log):
        stats = DriverStats()
        metrics = (compute_metrics(log, settings)
                   if log.has_completions() else None)
        validity = validate_run(log, settings, stats)
        yield stage, log, verdict_digest(metrics, validity)


def all_digests():
    digests = {}
    for name in RUNS:
        result = RUNS[name]()
        digests[f"run/{name}"] = verdict_digest(result.metrics,
                                                result.validity)
    for name in BUILT:
        for stage, _log, digest in built_stages(name):
            digests[f"built/{name}/{stage}"] = digest
    return digests


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text())


# -- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_run_logs_what_the_shipped_log_logged(teed, recorded, name):
    result = run_case(name)
    assert_same_result(result)
    assert verdict_digest(result.metrics, result.validity) == \
        recorded[f"run/{name}"]


@pytest.mark.parametrize("name", sorted(BUILT))
def test_a_hand_built_log_reads_as_the_shipped_log(recorded, name):
    stages = 0
    for stage, log, digest in built_stages(name):
        assert_same(log)
        assert digest == recorded[f"built/{name}/{stage}"], stage
        stages += 1
    assert stages


def test_the_runs_cover_both_sides_of_a_sweep_block(teed):
    lengths = {name: run_case(name).log.query_count
               for name in ("server-short", "server-long")}
    assert lengths["server-short"] < BLOCK < lengths["server-long"]
    assert lengths["server-long"] > 3 * BLOCK


def test_recorded_cases_are_the_cases_run(recorded):
    names = {f"run/{name}" for name in RUNS}
    assert names <= set(recorded)
    assert {key.split("/")[1] for key in recorded
            if key.startswith("built/")} == set(BUILT)


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                        + "\n")
    print(f"recorded {RECORDED}")
