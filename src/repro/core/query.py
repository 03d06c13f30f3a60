"""Query, sample, and response types exchanged between LoadGen and SUT.

Terminology follows the paper (Section IV): a *sample* is one unit of
inference input (one image, one sentence); a *query* is a request for
inference on one or more samples.  Single-stream and server queries carry
one sample, multistream queries carry N, and the offline scenario issues
a single query containing the whole performance set (>= 24,576 samples).

Samples, responses and stream chunks are named tuples, built in bulk: a
query's samples, a SUT's response list and a stream's chunks are each
one ``map`` over C constructors (:data:`new_response` for responses,
:data:`new_chunk` for chunks), so an Offline query of tens of thousands
of samples costs no Python frame per sample on either side, and a
streamed answer none per chunk.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import List, NamedTuple, Optional, Tuple


class SessionTurn(NamedTuple):
    """Conversation-turn coordinates carried by a session-workload query.

    ``session_id`` identifies the user conversation; ``turn_index`` is
    this query's zero-based position within it and ``turn_count`` the
    conversation's planned length, so the referee can tell a finished
    session from one whose tail was lost.  ``prefix_tokens`` is the
    context shared with earlier turns (what a prefix cache can reuse),
    ``new_tokens`` the fresh prompt this turn appends, and
    ``response_tokens`` the answer's planned length - together they
    determine the next turn's prefix, which is what lets the
    prefix-cache audit recompute expected hits from the replay graph
    alone (see ``docs/sessions.md``).
    """

    session_id: int
    turn_index: int
    turn_count: int
    prefix_tokens: int
    new_tokens: int
    response_tokens: int


class QuerySample(NamedTuple):
    """One sample within a query.

    ``id`` uniquely identifies the sample instance within the run (used
    to match responses to issues); ``index`` is the position of the
    underlying data in the query sample library, so duplicate indices can
    and do occur - the sampler draws with replacement.

    A NamedTuple rather than a dataclass: offline and multistream
    queries carry tens of thousands of samples, so construction cost is
    on the benchmark's own hot path.
    """

    id: int
    index: int


#: ``QuerySample(id, index)`` from one ``(id, index)`` pair without the
#: namedtuple's Python-level ``__new__``: one C call per sample, which is
#: what an Offline query of 24,576 samples multiplies.
new_sample = partial(tuple.__new__, QuerySample)


class _Slotted:
    """``repr`` and ``==`` over ``__slots__``, field by field in
    declaration order - what ``@dataclass`` gave :class:`Query` and
    :class:`QueryRecord` before they were slotted.  One of each is
    allocated per issued query, so neither carries a ``__dict__``."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    __hash__ = None  # mutable, compared by value


class Query(_Slotted):
    """A request for inference on one or more samples.

    ``contiguous`` records that the samples' data are adjacent in memory,
    which the multistream and offline rules guarantee so that SUTs need
    not copy samples into a contiguous region before starting inference.

    ``session`` is set on session-workload queries: which conversation
    turn this is.  ``None`` for the classic independent-query scenarios,
    so nothing downstream pays for sessions it does not use.
    """

    __slots__ = ("id", "samples", "issue_time", "contiguous", "session")

    def __init__(
        self,
        id: int,
        samples: Tuple[QuerySample, ...],
        issue_time: float = 0.0,
        contiguous: bool = True,
        session: Optional[SessionTurn] = None,
    ) -> None:
        if not samples:
            raise ValueError("a query must contain at least one sample")
        self.id = id
        self.samples = samples
        self.issue_time = issue_time
        self.contiguous = contiguous
        self.session = session

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def sample_indices(self) -> Tuple[int, ...]:
        return tuple(s.index for s in self.samples)


class QueryFailure:
    """A SUT's admission that it cannot answer a query.

    Delivered through the same responder channel as a normal response
    list (``SutBase.fail``), so the referee hears about permanent
    failures - retry exhaustion, output-count mismatches, backend
    crashes - instead of waiting forever for responses that will never
    come.  The LoadGen records the query as *failed* (not completed) and
    the run is INVALID, but it terminates cleanly.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"QueryFailure(reason={self.reason!r})"


class StreamChunk(NamedTuple):
    """One increment of a streamed answer.

    Streaming SUTs deliver their output as an ordered sequence of
    chunks through the same responder channel used for terminal
    outcomes (``SutBase.emit_chunk``), followed by a normal response
    list once the stream ends.  ``seq`` numbers chunks from zero;
    ``last`` marks the final chunk; ``token_count`` is how many output
    tokens the chunk carries (chunks may batch several tokens, as real
    streaming APIs do).  A stream that restarts - because a retry or
    reroute reissued the query - begins again at ``seq == 0``; the
    referee counts the restart and keeps only the final attempt's
    timing.

    A tuple built in C, no longer slotted: chunks outnumber queries by
    the mean token count, so a streaming SUT builds a whole stream's
    chunks at once with :data:`new_chunk`, with no Python frame per
    chunk.  Immutable, so one chunk may be built ahead of its delivery.
    It still compares like the class it replaced: equal only to itself
    (never to another chunk with the same fields, nor to a plain tuple)
    and hashed by identity.  Every arrival screen tests for a chunk
    before it takes an arrival as a response sequence.
    """

    query_id: int
    seq: int
    token_count: int = 1
    last: bool = False
    data: object = None

    def __repr__(self) -> str:
        return (
            f"StreamChunk(query_id={self.query_id}, seq={self.seq}, "
            f"token_count={self.token_count}, last={self.last})"
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # Another tuple is never equal; anything else gets its own say.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        # Spelled out: tuple's own __ne__ would otherwise answer ``!=``.
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = object.__hash__  # by identity, like the class it replaced


#: ``StreamChunk`` from one ``(query_id, seq, token_count, last, data)``
#: tuple without the namedtuple's Python-level ``__new__``: mapped over
#: a stream's field tuples, it builds every chunk of the stream in C.
new_chunk = partial(tuple.__new__, StreamChunk)


class QuerySampleResponse(NamedTuple):
    """The SUT's answer for one sample of a query.

    ``data`` is the raw inference output (label index, detection list,
    token ids, ...) and is only retained in accuracy mode or when the
    accuracy-verification audit randomly logs performance-mode results.

    A tuple, like :class:`QuerySample`, so a SUT builds a query's whole
    response list in C: ``list(map(new_response, pairs))`` over its
    ``(sample_id, data)`` pairs, with no Python frame per sample.  It
    still compares like the class it replaced: equal only to another
    response with equal fields, never to a plain tuple, and unhashable.
    The one difference: a :class:`QuerySample` on the *left* of ``==``
    compares as a tuple and answers first, so ``QuerySample(1, "x") ==
    QuerySampleResponse(1, "x")`` holds (the other way round it does not).
    """

    sample_id: int
    data: object = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuerySampleResponse)
            and self.sample_id == other.sample_id
            and self.data == other.data
        )

    def __ne__(self, other: object) -> bool:
        # Spelled out: tuple's own __ne__ would otherwise answer ``!=``.
        return not self.__eq__(other)

    __hash__ = None  # data may be a list or an array: never hashed


#: ``QuerySampleResponse`` from one ``(sample_id, data)`` pair without
#: the namedtuple's Python-level ``__new__``: mapped over a query's
#: pairs, it builds the whole response list in C (the idiom of
#: ``core/sampler.py``'s ``QuerySample``).
new_response = partial(tuple.__new__, QuerySampleResponse)

#: ``sample.id`` read in C: ``zip(map(sample_id_of, query.samples),
#: outputs)`` is a query's ``(sample_id, data)`` pairs.
sample_id_of = attrgetter("id")


class QueryRecord(_Slotted):
    """Everything the LoadGen logs about one query's lifecycle.

    ``failure_reason`` / ``failure_time`` are set when the query
    resolved as a failure (malformed completion, retry exhaustion, ...)
    rather than a clean response.

    The streaming lifecycle fields are all None/zero for non-streamed
    queries.  Chunk times are the *current attempt's*: a stream restart
    resets them, so TTFT/TPOT reflect the attempt that actually
    answered.  ``stream_closed`` is True once a chunk with ``last=True``
    arrived for the current attempt; a streamed record completing
    without it is *truncated*.  ``stream_restarts`` counts how many
    times the stream restarted at ``seq == 0`` (retries, reroutes) -
    informational, not misbehavior.
    """

    __slots__ = (
        "query", "issue_time", "completion_time", "responses",
        "scheduled_time", "failure_reason", "failure_time",
        "first_chunk_time", "last_chunk_time", "chunk_count",
        "token_count", "stream_closed", "stream_restarts",
    )

    def __init__(
        self,
        query: Query,
        issue_time: float,
        completion_time: Optional[float] = None,
        responses: Optional[List[QuerySampleResponse]] = None,
        scheduled_time: Optional[float] = None,
        failure_reason: Optional[str] = None,
        failure_time: Optional[float] = None,
        first_chunk_time: Optional[float] = None,
        last_chunk_time: Optional[float] = None,
        chunk_count: int = 0,
        token_count: int = 0,
        stream_closed: bool = False,
        stream_restarts: int = 0,
    ) -> None:
        self.query = query
        self.issue_time = issue_time
        self.completion_time = completion_time
        self.responses = responses
        self.scheduled_time = scheduled_time
        self.failure_reason = failure_reason
        self.failure_time = failure_time
        self.first_chunk_time = first_chunk_time
        self.last_chunk_time = last_chunk_time
        self.chunk_count = chunk_count
        self.token_count = token_count
        self.stream_closed = stream_closed
        self.stream_restarts = stream_restarts

    @property
    def latency(self) -> float:
        """Seconds from issue to completion (the timed interval)."""
        if self.completion_time is None:
            raise ValueError(f"query {self.query.id} never completed")
        return self.completion_time - self.issue_time

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None

    @property
    def streamed(self) -> bool:
        """At least one chunk arrived for this query."""
        return self.first_chunk_time is not None

    @property
    def ttft(self) -> Optional[float]:
        """Time to first token: first chunk minus issue, in seconds.

        ``None`` until a chunk arrives.  For non-streamed queries the
        caller falls back to the full latency (the whole answer *is*
        the first token).
        """
        if self.first_chunk_time is None:
            return None
        return self.first_chunk_time - self.issue_time

    @property
    def tpot(self) -> Optional[float]:
        """Time per output token after the first, in seconds.

        ``(last_chunk - first_chunk) / (tokens - 1)``; zero for a
        single-token stream (there is no inter-token interval to
        measure); ``None`` for non-streamed queries.
        """
        if self.first_chunk_time is None or self.last_chunk_time is None:
            return None
        if self.token_count <= 1:
            return 0.0
        return (self.last_chunk_time - self.first_chunk_time) / (
            self.token_count - 1
        )
