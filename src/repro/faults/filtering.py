"""The attempt engine: one machine for every wrapper that re-issues work.

A wrapper that retries, hedges or reroutes hears from an unreliable
source, so what comes back may be a duplicate, a straggler that lost its
deadline race, an answer from an attempt the wrapper already gave up on,
an answer to a query it never sent, a chunk out of sequence, or a
malformed response set.  None of those may reach the referee (paper
Fig. 3: every issued query completes exactly once) - the wrapper either
tries again or reports a recorded failure.

:class:`AttemptSUT` is that machine, written once: admit a query as an
:class:`Attempt`, arm its one deadline, push it back on every clean
chunk, screen each arrival, resolve.  ``ResilientSUT``, ``SelfHealingSUT``,
``ReplicaSet`` and ``NetworkSUT`` subclass it and keep only policy - what
happens next when an attempt is lost (back off and retry, hedge or fail
over, reroute to another replica, resend on another connection).  The
lifecycle is described in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..core.events import EventHandle, EventLoop
from ..core.query import Query, QueryFailure, StreamChunk
from ..core.sut import Responder, SutBase


def malformed_reason(query: Query, responses) -> Optional[str]:
    """Why ``responses`` is not a well-formed answer to ``query``.

    Returns ``None`` for a clean response set.  This is the wrapper-side
    twin of the referee's checks in ``QueryLog.observe_completion``: the
    same response set the referee would record as a malformed-response
    failure is the one a wrapper should treat as a lost attempt.
    """
    samples = query.samples
    count = len(samples)
    if len(responses) != count:
        return f"expected {count} responses, got {len(responses)}"
    # One sample that names the right id is the whole check (as in the
    # referee); anything else compares as sets.
    if count != 1 or responses[0].sample_id != samples[0].id:
        expected = {s.id for s in samples}
        got = {r.sample_id for r in responses}
        if got != expected:
            return (
                f"{len(got - expected)} responses name sample ids that "
                "are not part of the query"
            )
    return None


class Attempt:
    """One in-flight query, as the wrapper that admitted it sees it.

    Wrappers subclass this for their own fields (the connection a query
    went out on, whether it is a breaker probe).  Everything but the
    query and its admission time is a class-level default, so admitting
    a query costs one constructor frame.
    """

    #: Attempts lost so far (the wrapper's policy counts them).
    tries = 0
    #: Who may still answer.  Arrivals from anyone else are absorbed; a
    #: wrapper with one inner SUT leaves the single anonymous source.
    sources: Tuple[Hashable, ...] = (None,)
    #: The armed deadline, ``None`` while nothing is armed.
    timer: Optional[EventHandle] = None
    #: Where clean chunks have pushed the deadline since it was armed:
    #: ``timer`` still fires at its own time, finds this later instant
    #: and moves there.  ``None`` until a chunk pushes.
    due: Optional[float] = None
    #: Where the live attempt's chunk stream has advanced to.
    next_seq = 0
    saw_last = False

    def __init__(self, query: Query, started: float) -> None:
        self.query = query
        #: Run time of admission - the anchor of per-query budgets.
        self.started = started


class AttemptSUT(SutBase):
    """Admit -> arm -> push -> screen -> resolve, for subclasses to
    steer through the hooks at the bottom of the class."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: query id -> state, in admission order.  Subclasses admit with
        #: a plain store and may iterate a snapshot of the values.
        self._inflight: Dict[int, Attempt] = {}

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self._inflight = {}

    def _live(self, state: Attempt) -> bool:
        """Still in flight?  The guard for timers that outlive a query."""
        return self._inflight.get(state.query.id) is state

    def _arm(self, state: Attempt, timeout: float,
             now: Optional[float] = None) -> None:
        """(Re)start the one deadline: ``timeout`` seconds of silence
        from ``now`` - pass it when the loop's clock was just read (a
        wall-clock reading is not free), else it is read here."""
        if state.timer is not None:
            state.timer.cancel()
        state.due = None
        loop = self._loop
        if now is None:
            now = loop.clock.now() if loop.realtime else loop.clock._now
        # A lambda, not functools.partial: RunAbortedError.origin names
        # the callback and must not carry object addresses.
        state.timer = loop.schedule(now + timeout, lambda: self._fire(state))

    def _fire(self, state: Attempt) -> None:
        if self._live(state):
            due = state.due
            if due is not None and due > self._loop.now:
                # Chunks pushed the deadline while this timer waited.
                state.due = None
                state.timer = self._loop.schedule(
                    due, lambda: self._fire(state))
                return
            state.timer = None
            self._expired(state)

    def _restart(self, state: Attempt,
                 sources: Tuple[Hashable, ...] = (None,)) -> None:
        """A new attempt is about to be issued to ``sources``: its
        stream starts over at seq 0, so the chunk progress of the
        attempt it replaces is forgotten and stragglers screen out."""
        state.sources = sources
        state.next_seq = 0
        state.saw_last = False

    def _resolve(self, state: Attempt) -> None:
        """Out of the table; every later arrival for the query is stale."""
        if state.timer is not None:
            state.timer.cancel()
        del self._inflight[state.query.id]

    def _receiver(self, source: Hashable = None) -> Responder:
        """The responder to hand the inner SUT known as ``source``."""
        return lambda query, arrival: self._deliver(source, query.id, arrival)

    def _deliver(self, source: Hashable, query_id: int, arrival) -> None:
        """Screen one arrival and route it to the hook it has earned."""
        state = self._inflight.get(query_id)
        # Plain lists and plain StreamChunks are what the hot paths
        # deliver; the exact type settles them without a call.
        kind = type(arrival)
        chunk = kind is StreamChunk or (
            kind is not list and isinstance(arrival, StreamChunk))
        if state is None or source not in state.sources:
            # Duplicate, unsolicited, post-resolution straggler, or an
            # answer from an attempt the wrapper already moved on from.
            self._absorbed(chunk)
            return
        if chunk:
            if arrival.seq == 0 and state.next_seq > 0:
                # A layer below reissued the query: a legitimate restart.
                state.next_seq = 0
                state.saw_last = False
            if state.saw_last or arrival.seq != state.next_seq:
                # Chunks are progress reports: one out of sequence says
                # nothing about the live attempt, so it is dropped, never
                # counted as a failed attempt.
                self._absorbed(True)
                return
            state.next_seq += 1
            if arrival.last:
                state.saw_last = True
            # The instant schedule_after would arm for.  A timer that
            # fires no later (timer[0], its heap entry's time) is left
            # where it is and moves there when it fires (_fire): a
            # healthy stream costs the heap nothing.
            timeout = self._advanced(state)
            loop, timer = self._loop, state.timer
            due = (loop.clock.now() if loop.realtime
                   else loop.clock._now) + timeout
            if timer is not None and timer[0] <= due:
                state.due = due
            else:  # nothing armed, or the policy shortened the window
                self._arm(state, timeout)
            self._responder(state.query, arrival)
        elif kind is not list and isinstance(arrival, QueryFailure):
            self._flawed(state, source,
                         f"attempt failed: {arrival.reason}", arrival)
        else:
            reason = malformed_reason(state.query, arrival)
            if reason is None:
                self._clean(state, source, arrival)
            else:
                self._flawed(state, source, reason, None)

    # -- policy hooks -----------------------------------------------------------

    def _advanced(self, state: Attempt) -> float:
        """A clean chunk advanced the live attempt; return the seconds of
        silence it has earned (the deadline meters inter-chunk gaps)."""
        raise NotImplementedError

    def _expired(self, state: Attempt) -> None:
        """The deadline fired on a live attempt (nothing is armed now)."""
        raise NotImplementedError

    def _flawed(self, state: Attempt, source: Hashable, reason: str,
                failure: Optional[QueryFailure]) -> None:
        """``source`` answered unusably: ``failure`` is the reported
        :class:`QueryFailure`, or ``None`` for a malformed response set.
        The query stays in flight and its deadline is left as it was."""
        raise NotImplementedError

    def _clean(self, state: Attempt, source: Hashable, responses) -> None:
        """``source`` answered well; the hook resolves and completes."""
        raise NotImplementedError

    def _absorbed(self, chunk: bool) -> None:
        """An arrival (a chunk, or a terminal outcome) was swallowed."""
        raise NotImplementedError
