"""Structured run logs (paper Section IV-B).

The LoadGen "records queries and responses from the SUT, and at the end
of the run, it reports statistics, summarizes the results, and determines
whether the run was valid".  :class:`QueryLog` is that record.  The
accuracy script and the audit tests consume it rather than reaching into
LoadGen internals, mirroring the real system where they parse log files.

In performance mode response payloads are normally discarded to avoid
perturbing the measurement; the accuracy-verification audit turns on
random payload logging via ``log_sample_probability``.

The Server rule alone asks for 270,336 queries (Table IV), so a resolved
query does not stay a ``QueryRecord`` with its ``Query``, samples and
boxed numbers.  Every :data:`SWEEP_BLOCK` resolved samples (a query of
N samples counts N, so a MultiStream tail is as small as a Server one),
and once more when the run is judged, the log retires the longest
resolved prefix of its records, in issue order, into flat ``array``
columns: query id; issue, scheduled and completion time (NaN stands for
None); sample ids and indices, flat, with offsets once a query carried
more than one.
What only some records carry - a failure, kept responses, stream fields,
a session tag - has its columns made when the first record carrying it
retires, filled back for the records retired before, so every column
holds one entry per retired record.  Only the unretired tail stays as
objects, so a query stuck at the front holds back only the records
issued after it.  A log fed what only a hand-built log carries (ids
issued out of order, a ``Query`` whose ``issue_time`` is not the
record's or whose ``contiguous`` is not True, integer times) stops
retiring and keeps its records whole.
:meth:`QueryLog.records` is a view that builds retired records on demand:
equal to the records the log held, not the same objects.  The referee's
readers (:meth:`QueryLog.completed`, :meth:`QueryLog.rows`) read the
columns without building a record per query.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, islice, repeat
from operator import attrgetter, eq, is_, is_not, sub
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..bounds import UNIT, check_range
from .query import (Query, QueryRecord, QuerySample, QuerySampleResponse,
                    SessionTurn, StreamChunk, new_sample, sample_id_of)

#: Resolved samples between two sweeps of the resolved prefix into the
#: columns: the bound on the resolved samples the log holds as objects
#: beyond those in flight.
SWEEP_BLOCK = 1024

#: ``response.sample_id`` read in C, for the referee's id-set check.
_RESPONSE_ID = attrgetter("sample_id")
#: Record and query fields read in C by the sweep.
_QUERY = attrgetter("query")
_ID = attrgetter("id")
_SAMPLES = attrgetter("samples")
_INDEX = attrgetter("index")
_SESSION = attrgetter("session")
_ISSUE_TIME = attrgetter("issue_time")  # a record's and a query's
_SCHEDULED = attrgetter("scheduled_time")
_COMPLETION = attrgetter("completion_time")
_REASON = attrgetter("failure_reason")
_FAILURE_TIME = attrgetter("failure_time")
_RESPONSES = attrgetter("responses")
#: The stream fields, ``stream_closed`` (which no metric reads) last.
_STREAM = attrgetter("first_chunk_time", "last_chunk_time", "chunk_count",
                     "token_count", "stream_restarts", "stream_closed")

_NAN = float("nan")
#: What a column holds for a record without its field, per typecode
#: (``"O"``: the column is a list).
_ABSENT = {"O": None, "d": _NAN, "q": 0, "b": 0}
#: The exact types a column hands back as it was given.
_INT = {int}
_FLOAT_OR_NONE = {float, type(None)}


def _nan_for_none(values: List[Optional[float]]) -> List[float]:
    return [_NAN if value is None else value for value in values]


def _none_for_nan(value: float) -> Optional[float]:
    return None if value != value else value


def _carried(values: list) -> List[bool]:
    """Per value, whether it is not None."""
    return list(map(is_not, values, repeat(None)))


def _grown(columns: Optional[tuple], typecodes: str, base: int,
           fields: tuple, carried: int) -> Optional[tuple]:
    """``columns`` (one per typecode: an ``array``, or a list for
    ``"O"``) extended by one block's ``fields`` (the same kinds), of
    which ``carried`` records carry the field.  None until a block first
    carries it; then made and filled back for the ``base`` records
    retired before."""
    if columns is None:
        if not carried:
            return None
        columns = tuple([None] * base if code == "O"
                        else array(code, [_ABSENT[code]]) * base
                        for code in typecodes)
    for column, values in zip(columns, fields):
        column += values
    return columns


class Completions(NamedTuple):
    """A log's clean completions in issue order, as columns: what the
    metrics and the validity rules read (``repro.core.metrics``)."""

    issue_times: Sequence[float]
    completion_times: Sequence[float]
    #: Samples carried by the completed queries.
    sample_count: int
    #: Positions (into the columns above) of the completions that
    #: streamed, and their stream fields.
    stream_at: Sequence[int]
    first_chunk_times: Sequence[float]
    last_chunk_times: Sequence[Optional[float]]
    chunk_counts: Sequence[int]
    token_counts: Sequence[int]
    stream_restarts: Sequence[int]
    #: Positions of the completions with a session tag, and the tags.
    session_at: Sequence[int]
    sessions: Sequence[SessionTurn]

    @classmethod
    def of(cls, records: Sequence[QueryRecord]) -> "Completions":
        """The columns of ``records`` (clean completions, issue order)."""
        stream_at = [at for at, record in enumerate(records)
                     if record.first_chunk_time is not None]
        streams = list(zip(*map(_STREAM, [records[at] for at in stream_at])))
        first, last, chunks, tokens, restarts, _closed = streams or [()] * 6
        tags = list(map(_SESSION, map(_QUERY, records)))
        carried = _carried(tags)
        return cls(
            list(map(_ISSUE_TIME, records)), list(map(_COMPLETION, records)),
            sum(map(len, map(_SAMPLES, map(_QUERY, records)))),
            stream_at, first, last, chunks, tokens, restarts,
            list(compress(range(len(tags)), carried)),
            list(compress(tags, carried)))

    def latencies(self) -> List[float]:
        """Issue to completion, seconds, per completion."""
        return list(map(sub, self.completion_times, self.issue_times))


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

    Resolved records retire into columns as the run goes (see the module
    docstring); every view below reads the columns and the unretired
    tail together, in issue order.
    """

    def __init__(self, log_sample_probability: float = 0.0, seed: int = 0) -> None:
        check_range("log_sample_probability", log_sample_probability, UNIT)
        #: The unretired tail: query id -> record; a dict keeps
        #: insertion order, which is issue order.
        self._records: Dict[int, QueryRecord] = {}
        #: The retired records' columns, one entry per record in issue
        #: order, read as ``column[i]``.  ``_offsets`` has one more:
        #: record ``i``'s samples are ``_offsets[i]:_offsets[i + 1]`` of
        #: the two sample columns; it is None while every retired query
        #: carried one sample (record ``i``'s is sample ``i``).
        self._ids = array("q")
        self._issue = array("d")
        self._scheduled = array("d")
        self._completion = array("d")
        self._sample_ids = array("q")
        self._sample_indices = array("q")
        self._offsets: Optional[array] = None
        #: What only some records carry, a tuple of columns each, None
        #: until the first record carrying it retires: failure reason
        #: (None where a record did not fail) and time (NaN; read only
        #: where the reason says the record failed, so a failure at NaN
        #: reads back NaN); kept responses (None); first / last chunk
        #: time (NaN), chunk, token and restart count and closed (0
        #: where a record did not stream); session tag (None).
        self._failures: Optional[tuple] = None
        self._kept: Optional[tuple] = None
        self._streams: Optional[tuple] = None
        self._sessions: Optional[tuple] = None
        #: False once the log was fed what only a hand-built log carries
        #: (ids out of issue order, an unusual ``Query``, a value a
        #: column cannot hand back as given): from then on the log keeps
        #: its records whole, so the retired ids stay ascending.
        self._retiring = True
        self._next_sweep = SWEEP_BLOCK
        #: Unretired failures and records with kept responses, and
        #: queries issued but not yet retired that carry a session tag:
        #: while none are pending and no column holds them, a sweep does
        #: not look for them.
        self._failures_pending = 0
        self._kept_pending = 0
        self._sessions_pending = 0
        #: Records issued, and records that reached a terminal state
        #: (completed or failed), kept incrementally so
        #: :attr:`outstanding` is O(1) - it is polled per event by the
        #: janitor, the watchdog, the snapshot sampler, and the
        #: ``loadgen_queries_outstanding`` gauge.
        self._issued_count = 0
        self._resolved_count = 0
        #: Samples those resolved records carried: what the sweep
        #: block counts.
        self._resolved_samples = 0
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
        if query.id in self._records or (
                self._ids and query.id <= self._ids[-1]
                and self._position(query.id) is not None):
            raise ValueError(f"query {query.id} issued twice")
        self._records[query.id] = QueryRecord(
            query, issue_time, scheduled_time=scheduled_time
        )
        self._issued_count += 1
        if query.session is not None:
            self._sessions_pending += 1
        if query.issue_time is not issue_time or query.contiguous is not True:
            self._retiring = False
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
            if self._ids and self._position(query.id) is not None:
                raise ValueError(f"query {query.id} completed twice")
            raise ValueError(f"completion for unknown query {query.id}")
        if (record.completion_time is not None
                or record.failure_reason is not None):
            raise ValueError(f"query {query.id} completed twice")
        if not completion_time >= record.issue_time:  # early, or NaN
            raise ValueError(
                f"query {query.id} completed before it was issued "
                f"({completion_time} < {record.issue_time})"
                if completion_time < record.issue_time else
                f"query {query.id} completed at {completion_time}, "
                "which is not a time"
            )
        expected = query.sample_count
        if len(responses) != expected:
            raise ValueError(
                f"query {query.id}: expected {expected} responses, "
                f"got {len(responses)}"
            )
        record.completion_time = completion_time
        self._resolved_count += 1
        self._resolved_samples += expected
        if keep_responses or (
            self.log_sample_probability > 0.0
            and self._rng.random() < self.log_sample_probability
        ):
            record.responses = list(responses)
            self._kept_pending += 1
        if self.observer is not None:
            self.observer("completed", query, completion_time, responses)
        if self._resolved_samples >= self._next_sweep:
            self.sweep()

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
          malformed (wrong count, wrong sample ids, time before issue
          or NaN);
        * ``"duplicate"``   - the query was already resolved; noted in
          :attr:`duplicate_completions`, record untouched;
        * ``"unsolicited"`` - no such query was ever issued; noted in
          :attr:`unsolicited_responses`.
        """
        try:
            record = self._records[query.id]
        except KeyError:
            if self._ids and self._position(query.id) is not None:
                self.duplicate_completions.append((query.id, completion_time))
                return "duplicate"
            self.unsolicited_responses.append((query.id, completion_time))
            return "unsolicited"
        if (record.completion_time is not None
                or record.failure_reason is not None):
            self.duplicate_completions.append((query.id, completion_time))
            return "duplicate"
        if not completion_time >= record.issue_time:  # early, or NaN
            return self.record_failure(
                query, completion_time,
                f"completed at {completion_time} before issue at "
                f"{record.issue_time}"
                if completion_time < record.issue_time else
                f"completed at {completion_time}, which is not a time",
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
        self._resolved_samples += expected
        if keep_responses or (
            self.log_sample_probability > 0.0
            and self._rng.random() < self.log_sample_probability
        ):
            record.responses = list(responses)
            self._kept_pending += 1
        if self.observer is not None:
            self.observer("completed", query, completion_time, responses)
        if self._resolved_samples >= self._next_sweep:
            self.sweep()
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
            if not (self._ids and self._position(query.id) is not None):
                self.unsolicited_responses.append((query.id, time))
                return "unsolicited"
            record = None  # retired, so resolved
        if (record is None or record.completion_time is not None
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
            if self._ids and self._position(query.id) is not None:
                self.duplicate_completions.append((query.id, time))
                return "duplicate"
            self.unsolicited_responses.append((query.id, time))
            return "unsolicited"
        if (record.completion_time is not None
                or record.failure_reason is not None):
            self.duplicate_completions.append((query.id, time))
            return "duplicate"
        record.failure_reason = reason
        record.failure_time = time
        if time is None:  # its column would read it back as NaN
            self._retiring = False
        self._resolved_count += 1
        self._resolved_samples += len(record.query.samples)
        self.failed_count += 1
        self._failures_pending += 1
        if self.observer is not None:
            self.observer("failed", query, time, reason)
        if self._resolved_samples >= self._next_sweep:
            self.sweep()
        return "failed"

    # -- retirement ----------------------------------------------------------

    def sweep(self) -> None:
        """Retire the longest resolved prefix of the tail into the
        columns.  The log sweeps every :data:`SWEEP_BLOCK` resolved
        samples; the referee sweeps once more when it judges the run.

        Every field is read in C, a block at a time, and a field only
        some records carry is read only while a record that may carry it
        is pending or its columns exist.
        """
        self._next_sweep = self._resolved_samples + SWEEP_BLOCK
        records = self._records
        if not records or not self._retiring:
            return
        first = next(iter(records.values()))
        if first.completion_time is first.failure_reason:  # both None
            return  # stuck at the front: nothing to retire
        tail = list(records.values())
        completion = list(map(_COMPLETION, tail))
        if not self._failures_pending:  # no failure in the tail
            # Unresolved is then no completion time, and there are
            # ``outstanding`` of those.
            count = completion.index(None) if self.outstanding else len(tail)
        else:
            unresolved = list(map(is_, completion, map(_REASON, tail)))
            count = unresolved.index(True) if True in unresolved else len(tail)
        block, rest = tail[:count], tail[count:]
        del completion[count:]
        queries = list(map(_QUERY, block))
        ids = list(map(_ID, queries))
        samples = list(map(_SAMPLES, queries))
        flat = list(chain(*samples))
        sample_ids = list(map(sample_id_of, flat))
        indices = list(map(_INDEX, flat))
        issue = list(map(_ISSUE_TIME, block))
        scheduled = list(map(_SCHEDULED, block))
        reasons = failure_times = kept = tags = None
        if self._failures_pending or self._failures is not None:
            reasons = list(map(_REASON, block))
            failure_times = list(map(_FAILURE_TIME, block))
        if self._kept_pending or self._kept is not None:
            kept = list(map(_RESPONSES, block))
        streams = list(zip(*map(_STREAM, block))) if self.stream_chunks else ()
        if self._sessions_pending or self._sessions is not None:
            tags = list(map(_SESSION, queries))
        if (set(map(type, chain(ids, sample_ids, indices, *streams[2:5])))
                - _INT
                or set(map(type, chain(issue, scheduled, completion,
                                       failure_times or (), *streams[:2])))
                - _FLOAT_OR_NONE
                or set(map(type, queries)) != {Query}
                or set(map(type, samples)) != {tuple}
                or set(map(type, flat)) != {QuerySample}
                or ids != sorted(ids)
                or (self._ids and ids[0] <= self._ids[-1])):
            self._retiring = False
            return
        base = len(self._ids)
        try:
            columns = (
                array("q", ids), array("d", issue),
                array("d", _nan_for_none(scheduled) if None in scheduled
                      else scheduled),
                array("d", _nan_for_none(completion) if None in completion
                      else completion),
                array("q", sample_ids), array("q", indices),
                None if self._offsets is None and len(flat) == count
                else array("q", islice(accumulate(
                    map(len, samples), initial=(
                        base if self._offsets is None
                        else self._offsets[-1])), 1, None)),
            )
            streamed = streams and (
                array("d", _nan_for_none(streams[0])),
                array("d", _nan_for_none(streams[1])),
                *map(array, "qqqb", streams[2:]))
        except OverflowError:
            self._retiring = False
            return
        self._ids += columns[0]
        self._issue += columns[1]
        self._scheduled += columns[2]
        self._completion += columns[3]
        self._sample_ids += columns[4]
        self._sample_indices += columns[5]
        if columns[6] is not None:
            if self._offsets is None:  # the first query of several samples
                self._offsets = array("q", range(base + 1))
            self._offsets += columns[6]
        if reasons is not None:
            carried = count - reasons.count(None)
            self._failures = _grown(self._failures, "Od", base, (
                reasons, array("d", _nan_for_none(failure_times))), carried)
            self._failures_pending -= carried
        if kept is not None:
            carried = count - kept.count(None)
            self._kept = _grown(self._kept, "O", base, (kept,), carried)
            self._kept_pending -= carried
        if streamed:
            self._streams = _grown(self._streams, "ddqqqb", base, streamed,
                                   any(streams[2]))
        if tags is not None:
            carried = count - tags.count(None)
            self._sessions = _grown(self._sessions, "O", base, (tags,),
                                    carried)
            self._sessions_pending -= carried
        # What stays is what is in flight or held behind it: a few.
        self._records = dict(zip(map(_ID, map(_QUERY, rest)), rest))

    def _position(self, query_id: int) -> Optional[int]:
        """The retired position of ``query_id``, or None (the retired
        ids ascend)."""
        ids = self._ids
        at = bisect_left(ids, query_id)
        return at if at < len(ids) and ids[at] == query_id else None

    def _retired(self, at: int) -> QueryRecord:
        """The record at retired position ``at``, built from the columns:
        equal to the record the log held, not the same object."""
        issue = self._issue[at]
        start, end = ((at, at + 1) if self._offsets is None
                      else (self._offsets[at], self._offsets[at + 1]))
        query = Query(
            self._ids[at],
            tuple(map(new_sample, zip(self._sample_ids[start:end],
                                      self._sample_indices[start:end]))),
            issue, True,
            None if self._sessions is None else self._sessions[0][at])
        record = QueryRecord(
            query, issue,
            completion_time=_none_for_nan(self._completion[at]),
            responses=None if self._kept is None else self._kept[0][at],
            scheduled_time=_none_for_nan(self._scheduled[at]))
        if self._failures is not None and self._failures[0][at] is not None:
            record.failure_reason = self._failures[0][at]
            record.failure_time = self._failures[1][at]
        if self._streams is not None and self._streams[2][at]:  # streamed
            (record.first_chunk_time, record.last_chunk_time,
             record.chunk_count, record.token_count,
             record.stream_restarts, closed) = [
                 column[at] for column in self._streams]
            record.stream_closed = bool(closed)
        return record

    # -- views ----------------------------------------------------------------

    def records(self) -> "RecordView":
        """All records in issue order: a sequence view (``len``, index,
        slice, iteration) that builds retired records on demand."""
        return RecordView(self)

    def record_for(self, query_id: int) -> Optional[QueryRecord]:
        """The record for one query id, or None if never issued."""
        record = self._records.get(query_id)
        if record is None and self._ids:
            at = self._position(query_id)
            if at is not None:
                return self._retired(at)
        return record

    def completed_records(self) -> List[QueryRecord]:
        """Cleanly completed records (failed queries are excluded)."""
        completion = self._completion  # NaN where a retired record failed
        retired = compress(range(len(completion)),
                           map(eq, completion, completion))
        return list(map(self._retired, retired)) + [
            r for r in self._records.values()
            if r.completion_time is not None and r.failure_reason is None]

    def failed_records(self) -> List[QueryRecord]:
        """Records that resolved as failures (malformed, retries spent)."""
        retired = []
        if self._failures is not None:
            reasons = self._failures[0]
            retired = list(map(self._retired, compress(
                range(len(reasons)), _carried(reasons))))
        return retired + [r for r in self._records.values()
                          if r.failure_reason is not None]

    def first_failures(self, limit: int) -> List[Tuple[int, str]]:
        """``(query id, failure reason)`` of the first ``limit`` failed
        queries, in issue order."""
        out = []
        if self._failures is not None:
            reasons = self._failures[0]
            out = list(islice(compress(zip(self._ids, reasons),
                                       _carried(reasons)), limit))
        for record in self._records.values():
            if len(out) == limit:
                break
            if record.failure_reason is not None:
                out.append((record.query.id, record.failure_reason))
        return out

    def outstanding_records(self) -> List[QueryRecord]:
        """Issued queries that never reached a terminal state (never
        retired: only resolved records are)."""
        return [r for r in self._records.values()
                if r.completion_time is None and r.failure_reason is None]

    def has_completions(self) -> bool:
        """Whether any query completed cleanly."""
        return self.completed_count > 0

    def completed(self) -> Completions:
        """The clean completions as columns, in issue order."""
        done = [r for r in self._records.values()
                if r.completion_time is not None and r.failure_reason is None]
        if not self._ids:
            return Completions.of(done)
        completion, issue = self._completion, self._issue
        offsets, streams = self._offsets, self._streams
        tags = None if self._sessions is None else self._sessions[0]
        if self._failures is None:  # every retired record completed
            # Copies: a later sweep extends the log's own arrays.
            issue, completion = issue[:], completion[:]
            sample_count = len(self._sample_ids)
        else:
            keep = list(map(eq, completion, completion))
            issue = array("d", compress(issue, keep))
            completion = array("d", compress(completion, keep))
            sample_count = len(issue) if offsets is None else sum(compress(
                map(sub, offsets[1:], offsets[:-1]), keep))
            if streams is not None:
                streams = list(map(list, map(compress, streams,
                                             repeat(keep))))
            if tags is not None:
                tags = list(compress(tags, keep))
        stream_at, fields = (), ((),) * 5
        if streams is not None:
            counts = streams[2]  # 0 where a completion did not stream
            stream_at = list(compress(range(len(counts)), counts))
            fields = list(map(list, map(compress, streams[:5],
                                        repeat(counts))))
        session_at = sessions = ()
        if tags is not None:
            carried = _carried(tags)
            session_at = list(compress(range(len(tags)), carried))
            sessions = list(compress(tags, carried))
        if not done:
            return Completions(issue, completion, sample_count, stream_at,
                               *fields, session_at, sessions)
        tail = Completions.of(done)
        shift = len(issue)
        return Completions(
            issue.tolist() + tail.issue_times,
            completion.tolist() + tail.completion_times,
            sample_count + tail.sample_count,
            list(chain(stream_at, map(shift.__add__, tail.stream_at))),
            *[list(chain(mine, theirs))
              for mine, theirs in zip(fields, tail[4:9])],
            list(chain(session_at, map(shift.__add__, tail.session_at))),
            list(chain(sessions, tail.sessions)))

    def rows(self) -> List[tuple]:
        """Every record as ``(query id, sample ids, sample indices, issue
        time, scheduled time, completion time, failure time, failure
        reason, responses)``, in issue order - the rows of
        ``run_fingerprint``, read from the columns.  Each equal value is
        boxed once per row: a scheduled time equal to the issue time is
        that float, a lone sample id equal to the query id that int."""
        retired = len(self._ids)
        ids = self._ids.tolist()
        issue = self._issue.tolist()
        if self._offsets is None:  # one sample per query
            sample_ids = (ids if self._sample_ids == self._ids
                          else self._sample_ids.tolist())
            id_tuples = zip(sample_ids)
            index_tuples = zip(self._sample_indices.tolist())
        else:
            spans = list(zip(self._offsets, islice(self._offsets, 1, None)))
            sample_ids = self._sample_ids.tolist()
            indices = self._sample_indices.tolist()
            id_tuples = [tuple(sample_ids[a:b]) for a, b in spans]
            index_tuples = [tuple(indices[a:b]) for a, b in spans]
        scheduled = [
            issued if issued == planned
            else None if planned != planned else planned
            for issued, planned in zip(issue, self._scheduled)]
        completion = [None if done != done else done
                      for done in self._completion]
        failure_times = failure_reasons = responses = [None] * retired
        if self._failures is not None:
            failure_reasons = self._failures[0]
            failure_times = [None if reason is None else time
                             for reason, time in zip(failure_reasons,
                                                     self._failures[1])]
        if self._kept is not None:
            responses = self._kept[0]
        out = list(zip(ids, id_tuples, index_tuples, issue, scheduled,
                       completion, failure_times, failure_reasons, responses))
        out += [
            (r.query.id, tuple(map(sample_id_of, r.query.samples)),
             tuple(map(_INDEX, r.query.samples)), r.issue_time,
             r.scheduled_time, r.completion_time, r.failure_time,
             r.failure_reason, r.responses)
            for r in self._records.values()]
        return out

    def latencies(self) -> List[float]:
        return self.completed().latencies()

    @property
    def query_count(self) -> int:
        return self._issued_count

    @property
    def outstanding(self) -> int:
        return self._issued_count - self._resolved_count

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
            + self.failed_count
            + len(self.stream_chunk_anomalies)
            + len(self.truncated_streams)
        )

    def logged_responses(self) -> Dict[int, object]:
        """Map sample id -> response payload for records that kept them."""
        out: Dict[int, object] = {}
        kept = () if self._kept is None else self._kept[0]
        for responses in chain(kept, map(_RESPONSES, self._records.values())):
            if responses is None:
                continue
            for response in responses:
                out[response.sample_id] = response.data
        return out

    def sample_index_map(self) -> Dict[int, int]:
        """Map of every issued sample id to its data set index."""
        out = dict(zip(self._sample_ids, self._sample_indices))
        for record in self._records.values():
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


class RecordView:
    """:meth:`QueryLog.records`: the log's records in issue order as of
    the call, retired ones built on demand.  Supports ``len``, index
    (negative too), slice (a list) and iteration."""

    __slots__ = ("_log", "_retired", "_tail")

    def __init__(self, log: QueryLog) -> None:
        self._log = log
        self._retired = len(log._ids)
        self._tail = list(log._records.values())

    def __len__(self) -> int:
        return self._retired + len(self._tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        if index < self._retired:
            return self._log._retired(index)
        return self._tail[index - self._retired]

    def __iter__(self) -> Iterator[QueryRecord]:
        yield from map(self._log._retired, range(self._retired))
        yield from self._tail


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
