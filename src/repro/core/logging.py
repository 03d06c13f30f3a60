"""Structured run logs (paper Section IV-B).

The LoadGen "records queries and responses from the SUT, and at the end
of the run, it reports statistics, summarizes the results, and determines
whether the run was valid".  :class:`QueryLog` is that record.  The
accuracy script and the audit tests consume it rather than reaching into
LoadGen internals, mirroring the real system where they parse log files.

In performance mode response payloads are normally discarded to avoid
perturbing the measurement; the accuracy-verification audit turns on
random payload logging via ``log_sample_probability``.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bounds import UNIT, check_range
from .query import (Query, QueryRecord, QuerySampleResponse, StreamChunk,
                    sample_id_of)

#: ``response.sample_id`` read in C, for the referee's id-set check.
_RESPONSE_ID = attrgetter("sample_id")


class QueryLog:
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
