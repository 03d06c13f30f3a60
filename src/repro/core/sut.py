"""System-under-test and query-sample-library interfaces (paper Fig. 3).

The benchmark draws a hard boundary between MLPerf-owned components (the
LoadGen, data set, accuracy script) and the submitter-owned SUT.  These
abstract interfaces are that boundary:

* :class:`QuerySampleLibrary` (QSL) wraps the data set.  The LoadGen asks
  the SUT to load a set of samples into memory as an *untimed* operation
  (steps 1-4 in Fig. 3) before any query is issued.
* :class:`SystemUnderTest` (SUT) receives queries and must complete each
  one by calling the responder the LoadGen provides (steps 5-6).

A SUT may complete queries synchronously inside ``issue_query`` or later
via events it schedules on the run's event loop; both styles appear in
``repro.sut``.
"""

from __future__ import annotations

from typing import Callable, List, Protocol, Sequence, runtime_checkable

from .events import EventLoop
from .query import Query, QueryFailure, QuerySampleResponse, StreamChunk

#: Signature of the completion callback handed to the SUT.  The second
#: argument is normally the response list; a SUT may instead deliver a
#: :class:`~repro.core.query.QueryFailure` (see :meth:`SutBase.fail`) to
#: report that the query will never complete cleanly, or a
#: :class:`~repro.core.query.StreamChunk` (see :meth:`SutBase.emit_chunk`)
#: to stream an incremental piece of the answer.  Chunks are *progress*,
#: not a terminal outcome: a streaming SUT still delivers the normal
#: response list (or a failure) after its last chunk, which is what lets
#: every non-streaming consumer of this channel keep working unchanged.
Responder = Callable[[Query, List[QuerySampleResponse]], None]


@runtime_checkable
class QuerySampleLibrary(Protocol):
    """The LoadGen's view of a data set."""

    @property
    def name(self) -> str: ...

    @property
    def total_sample_count(self) -> int:
        """Number of samples in the full (accuracy-mode) data set."""
        ...

    @property
    def performance_sample_count(self) -> int:
        """Number of samples guaranteed to fit in memory for perf mode."""
        ...

    def load_samples(self, indices: Sequence[int]) -> None:
        """Untimed: bring the given samples into memory."""
        ...

    def unload_samples(self, indices: Sequence[int]) -> None:
        """Untimed: release the given samples."""
        ...

    def get_sample(self, index: int) -> object:
        """Return the (preprocessed) input data for one sample."""
        ...


@runtime_checkable
class SystemUnderTest(Protocol):
    """The submitter-owned inference system."""

    @property
    def name(self) -> str: ...

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        """Called once before the first query of a run.

        Untimed setup (compilation, cache warm-up, weight layout) belongs
        here; the clock has not started counting toward any latency.
        """
        ...

    def issue_query(self, query: Query) -> None:
        """Receive one query.  Must eventually invoke the responder."""
        ...

    def flush(self) -> None:
        """Hint that no further queries will arrive (offline scenario)."""
        ...


class _Unstarted:
    """What a SUT holds for its loop and its responder until
    ``start_run``: reading anything off it, or calling it, raises.  Hot
    paths therefore use ``self._loop`` and ``self._responder`` as they
    are, with no check of their own, and misuse still fails loudly."""

    message = "start_run was never called on this SUT"

    def __call__(self, *args, **kwargs):
        raise RuntimeError(self.message)

    def __getattr__(self, name: str):
        if name.startswith("__"):  # copy, pickle and friends probing
            raise AttributeError(name)
        raise RuntimeError(self.message)

    def __reduce__(self) -> str:
        return "_UNSTARTED"  # copies and pickles stay the one object


class _Ended(_Unstarted):
    """What a SUT holds for them once its run has ended (:meth:`SutBase.
    end_run`).  A callback a thread posts now - a frame off the wire, a
    straggler - has no run left to join and is dropped; anything else
    raises as before ``start_run``."""

    message = "the run this SUT was started for has ended"

    def post(self, callback) -> None:
        pass

    def __reduce__(self) -> str:
        return "_ENDED"


_UNSTARTED = _Unstarted()
_ENDED = _Ended()


class SutBase:
    """Convenience base class implementing the boring parts of the SUT
    protocol; concrete SUTs override :meth:`issue_query`."""

    #: The SUTs this one wraps.  A wrapper sets it once and inherits the
    #: forwarding of :meth:`flush` and :meth:`close` down the stack.
    inners: Sequence["SystemUnderTest"] = ()
    _closed = False

    def __init__(self, name: str) -> None:
        self._name = name
        self._loop: EventLoop = _UNSTARTED
        self._responder: Responder = _UNSTARTED

    @property
    def name(self) -> str:
        return self._name

    @property
    def loop(self) -> EventLoop:
        loop = self._loop
        if loop is _UNSTARTED or loop is _ENDED:
            raise RuntimeError(loop.message)
        return loop

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        self._loop = loop
        self._responder = responder
        self._closed = False

    def end_run(self) -> None:
        """Let go of the run: drop the loop and the responder
        ``start_run`` bound, here and down the stack through
        :attr:`inners`.  A wrapper's responder is its own bound method,
        so until then wrapper and inner hold each other; the LoadGen
        calls this once the loop has exited, and the next ``start_run``
        binds both afresh.  A subclass that keeps other links to the
        run (a timer, a callback table) drops them here too."""
        self._loop = self._responder = _ENDED
        for inner in self.inners:
            end_run = getattr(inner, "end_run", None)
            if end_run is not None:
                end_run()

    def complete(self, query: Query, responses: List[QuerySampleResponse]) -> None:
        """Report ``query`` finished with ``responses`` to the LoadGen."""
        self._responder(query, responses)

    def fail(self, query: Query, reason: str) -> None:
        """Report that ``query`` will never complete cleanly.

        The referee records the failure (the run becomes INVALID with a
        "malformed responses" verdict) but keeps running - a misbehaving
        backend must not kill the harness.
        """
        self._responder(query, QueryFailure(reason))

    def emit_chunk(self, query: Query, chunk: StreamChunk) -> None:
        """Stream one incremental piece of ``query``'s answer.

        Chunks ride the same responder channel as terminal outcomes, so
        every wrapper in the stack (retry, healing, fleet, network) sees
        them without a second callback plumbing.  The stream must end
        with a chunk marked ``last=True`` followed by the usual
        :meth:`complete` (or :meth:`fail`) call.
        """
        self._responder(query, chunk)

    def issue_query(self, query: Query) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Nothing buffered here; pass the hint down the stack."""
        for inner in self.inners:
            inner.flush()

    def close(self) -> None:
        """Release what the wrapped SUTs own (worker pools, sockets).
        Safe before ``start_run`` and more than once; a later
        ``start_run`` makes the stack closable again."""
        if self._closed:
            return
        self._closed = True
        for inner in self.inners:
            close = getattr(inner, "close", None)
            if callable(close):
                close()
