"""The attempt engine: one machine for every wrapper that re-issues work.

A wrapper that retries, hedges or reroutes hears from an unreliable
source, so what comes back may be a duplicate, a straggler that lost its
deadline race, an answer from an attempt the wrapper already gave up on,
an answer to a query it never sent, a chunk out of sequence, or a
malformed response set.  None of those may reach the referee (paper
Fig. 3: every issued query completes exactly once) - the wrapper either
tries again or reports a recorded failure.

:class:`AttemptSUT` is that machine, written once: admit a query as an
:class:`Attempt`, arm its deadline and hedge (floats on the attempt: the
engine keeps one loop event, at the earliest of them), push the deadline
back on every clean chunk, screen each arrival, resolve.  ``ResilientSUT``,
``SelfHealingSUT``, ``ReplicaSet`` and ``NetworkSUT`` keep only policy -
what happens when an attempt is lost (back off and retry, hedge or fail
over, reroute, resend).  The lifecycle: ``docs/architecture.md``.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Hashable, List, Optional, Tuple

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
    #: The instant the attempt is lost unless something is heard first
    #: (``inf``: nothing armed), and which ``_arm`` call of the run set
    #: it: deadlines reached together expire in the order they were armed.
    deadline = inf
    order = 0
    #: The instant ``_hedge`` runs unless the attempt resolves first
    #: (``inf``: none).  It precedes the deadline, shares its arm order,
    #: and no chunk pushes it.
    hedge_at = inf
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

    #: The one loop event, never later than the earliest deadline in the
    #: table; arms so far; drain mode; the last instant a tick yielded in.
    _timer: Optional[EventHandle] = None
    _arms, _draining, _yielded = 0, False, -inf

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: query id -> state, in admission order.  Subclasses admit with
        #: a plain store and may iterate a snapshot of the values.
        self._inflight: Dict[int, Attempt] = {}

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self._inflight, self._timer = {}, None
        self._arms, self._draining, self._yielded = 0, False, -inf

    def end_run(self) -> None:
        self._timer = None  # its callback is this wrapper's tick
        super().end_run()

    def flush(self) -> None:
        self._drain()
        super().flush()

    def _live(self, state: Attempt) -> bool:
        """Still in flight?  The guard for timers that outlive a query."""
        return self._inflight.get(state.query.id) is state

    def _arm(self, state: Attempt, timeout: float,
             now: Optional[float] = None,
             hedge: Optional[float] = None) -> None:
        """(Re)start the one deadline: ``timeout`` seconds of silence
        from ``now`` - pass it when the loop's clock was just read (a
        wall-clock reading is not free), else it is read here.  A
        ``hedge`` (shorter than ``timeout``) sets the hedge instant that
        many seconds from ``now`` too."""
        loop = self._loop
        if now is None:
            now = loop.clock.now()
        state.deadline = wake = now + timeout
        if hedge is not None:
            state.hedge_at = wake = now + hedge
        self._arms = state.order = self._arms + 1
        timer = self._timer
        if timer is None or wake < timer[0]:
            if timer is not None:
                timer.cancel()
            self._timer = loop.schedule(wake, self._tick)

    def _tick(self) -> None:
        """Act on what has reached its instant; wait for the next one."""
        loop = self._loop
        now = loop.clock.now()
        if not loop.realtime and self._yielded != now:
            # Once per instant, yield to what else is queued for it.
            self._yielded = now
            self._timer = loop.schedule(now, self._tick)
            return
        due, earliest = [], inf
        for state in self._inflight.values():
            hedge, deadline = state.hedge_at, state.deadline
            if hedge <= now or deadline <= now:
                due.append(state)
            if now < hedge < earliest:
                earliest = hedge
            if now < deadline < earliest:  # a due hedge's deadline too
                earliest = deadline
        self._timer = (
            loop.schedule(earliest, self._tick) if earliest < inf else None)
        self._lose(due, now)

    def _lose(self, due: List[Attempt], now: float) -> None:
        """Act on ``due`` in instant order, arm order breaking ties: a
        hedge that is due runs before an expiry that is."""
        due.sort(key=lambda state: (
            state.hedge_at if state.hedge_at <= now else state.deadline,
            state.order))
        for state in due:
            # An earlier hook may have resolved or re-armed this one.
            if state.hedge_at <= now and self._live(state):
                state.hedge_at = inf
                self._hedge(state)
            if state.deadline <= now and self._live(state):
                state.deadline = inf
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
        del self._inflight[state.query.id]
        if self._draining:
            self._drain()

    def _drain(self) -> None:
        """Enter (or stay in) drain mode; with the table empty, disarm."""
        self._draining = True
        if self._timer is not None and not self._inflight:
            self._timer.cancel()
            self._timer = None

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
        loop = self._loop
        if not loop.realtime:
            now = loop.clock.now()
            if state.deadline <= now or state.hedge_at <= now:
                # An instant, armed before the inner SUT was issued to,
                # beats what lands on it; so do those armed before it.
                last = state.order
                self._lose([s for s in self._inflight.values()
                            if (s.deadline <= now or s.hedge_at <= now)
                            and s.order <= last], now)
                self._deliver(source, query_id, arrival)
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
            # A later deadline is a store (the tick will find it); only
            # nothing armed, or a window the policy shortened, arms.
            timeout = self._advanced(state)
            now = loop.clock.now()
            if state.deadline <= now + timeout:
                state.deadline = now + timeout
            else:
                self._arm(state, timeout, now)
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

    def _hedge(self, state: Attempt) -> None:
        """The hedge instant was reached on a live attempt; its deadline
        stays armed."""
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
