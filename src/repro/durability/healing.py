"""Self-healing serving path: breaker-guarded primary, hedged standby.

``SelfHealingSUT`` wraps a primary backend (typically a ``NetworkSUT``
or ``ParallelSUT``) and keeps the run alive through backend outages:

* every query carries a per-query deadline (``attempt_timeout``);
* primary outcomes feed a :class:`~repro.durability.breaker.CircuitBreaker`
  — while it is open, queries are *shed* in O(1) (failed fast with a
  classified reason) or, when a ``standby`` backend is configured,
  rerouted to the standby without burning the deadline on a dead
  primary;
* with ``hedge_delay`` set, a query that the primary has not answered
  after that long is *hedged*: re-issued to the standby under the same
  query id, first clean answer wins, the shared attempt engine
  (:class:`~repro.faults.filtering.AttemptSUT`) absorbs the loser;
* a primary failure (``QueryFailure`` or malformed response set) fails
  over to the standby immediately instead of waiting out the deadline.

Health checking is passive-first: the breaker's sliding outcome window
is the health signal, and its half-open probe admissions are the
recovery checks.  All timing runs on the run's event loop, so the whole
healing path is deterministic under the virtual clock.  The layer emits
the ``breaker_*`` metric families; see ``docs/durability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import inf
from typing import Optional

from ..bounds import POSITIVE, check_range
from ..core.events import EventLoop
from ..core.query import Query
from ..core.sut import Responder, SystemUnderTest
from ..faults.filtering import Attempt, AttemptSUT
from ..metrics import MetricsRegistry, export_ledger, exported
from .breaker import STATE_CODES, BreakerPolicy, BreakerState, CircuitBreaker


@dataclass
class HealingStats:
    """What the healing layer did during one run."""

    shed_queries: int = 0
    standby_queries: int = 0
    hedged_queries: int = 0
    failovers: int = 0
    hedge_wins: int = 0
    standby_completions: int = exported(
        "breaker_standby_completions_total",
        "Queries answered by the standby backend")
    primary_failures: int = exported(
        "breaker_recorded_failures_total",
        "Primary outcomes recorded as failures by the breaker")
    deadline_failures: int = 0
    filtered_completions: int = 0
    probe_queries: int = exported(
        "breaker_probe_queries_total",
        "Half-open trial queries admitted to the primary")


class _Guarded(Attempt):
    """Per-query in-flight state.  ``sources`` holds whichever of
    "primary" and "standby" have been asked and have not yet answered
    flawed; the query fails when the last of them does."""

    sources = ("primary",)
    probe = False
    #: The standby was asked too (hedge or failover), or instead.
    hedged = False


def _count_transition(counter, time: float, source: BreakerState,
                      target: BreakerState) -> None:
    """A breaker's ``on_transition``: one ``breaker_transitions_total``
    increment."""
    counter.labels(source=source.value, target=target.value).inc()


class SelfHealingSUT(AttemptSUT):
    """Circuit breaker + hedged standby around a primary backend."""

    def __init__(
        self,
        primary: SystemUnderTest,
        standby: Optional[SystemUnderTest] = None,
        *,
        policy: Optional[BreakerPolicy] = None,
        attempt_timeout: float = 0.100,
        total_timeout: Optional[float] = None,
        hedge_delay: Optional[float] = None,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name or f"healing[{primary.name}]")
        check_range("attempt_timeout", attempt_timeout, POSITIVE)
        if total_timeout is not None and not total_timeout >= attempt_timeout:
            raise ValueError(
                "total_timeout must be >= attempt_timeout, got "
                f"{total_timeout} < {attempt_timeout}")
        if hedge_delay is not None:
            if standby is None:
                raise ValueError("hedge_delay requires a standby backend")
            if not 0 < hedge_delay < attempt_timeout:
                raise ValueError(
                    "hedge_delay must be in (0, attempt_timeout), got "
                    f"{hedge_delay}")
        self.primary = primary
        self.standby = standby
        self.inners = (primary,) if standby is None else (primary, standby)
        self.policy = policy if policy is not None else BreakerPolicy()
        self.attempt_timeout = attempt_timeout
        #: Hard per-query wall across failovers and hedges.  The healing
        #: layer arms exactly one deadline per query (failover never
        #: rearms it), so the per-query bound is
        #: ``min(attempt_timeout, total_timeout)`` by construction -
        #: pass the run's ``watchdog_timeout`` (minus headroom) to make
        #: the layer deadline-safe regardless of how the two knobs are
        #: tuned relative to each other.
        self.total_timeout = total_timeout
        self.hedge_delay = hedge_delay
        self.stats = HealingStats()
        self._breaker: Optional[CircuitBreaker] = None
        #: ``breaker_transitions_total{source,target}``: the one thing
        #: the ledger cannot hold (``None``: no registry).
        self._transitions = None
        if registry is not None:
            self._export(registry)

    def _export(self, registry: MetricsRegistry) -> None:
        """The ``breaker_*`` families: the ledger's own fields, the two
        totals that are each the sum of two of them, the state gauge
        and the labelled transition counter."""
        export_ledger(registry, lambda: self.stats)
        registry.counter(
            "breaker_rejected_queries_total",
            "Queries rejected fast (shed or rerouted) while open",
            fn=lambda: self.stats.shed_queries + self.stats.standby_queries)
        registry.counter(
            "breaker_hedged_queries_total",
            "Queries hedged or failed over to the standby backend",
            fn=lambda: self.stats.hedged_queries + self.stats.failovers)
        registry.gauge(
            "breaker_state",
            "Circuit breaker state (0=closed, 1=open, 2=half_open)",
            fn=self._state_code)
        self._transitions = registry.counter(
            "breaker_transitions_total",
            "Circuit breaker state transitions",
            labels=("source", "target"))

    def _state_code(self) -> float:
        if self._breaker is None:
            return float(STATE_CODES[BreakerState.CLOSED])
        return float(STATE_CODES[self._breaker.state])

    @property
    def breaker(self) -> CircuitBreaker:
        if self._breaker is None:
            raise RuntimeError("start_run was never called on this SUT")
        return self._breaker

    # -- lifecycle --------------------------------------------------------------

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = HealingStats()
        # The breaker outlives the run (reports read its state), so it
        # holds the clock and the counter, never this wrapper.
        self._breaker = CircuitBreaker(
            self.policy, clock=loop.clock.now,
            on_transition=(None if self._transitions is None
                           else partial(_count_transition, self._transitions)))
        self.primary.start_run(loop, self._receiver("primary"))
        if self.standby is not None:
            self.standby.start_run(loop, self._receiver("standby"))

    def issue_query(self, query: Query) -> None:
        verdict = self.breaker.admit()
        if verdict == "reject":
            if self.standby is not None:
                # Shed *from the primary*: the standby carries the load
                # while the breaker waits out the outage.
                state = self._inflight[query.id] = _Guarded(
                    query, self._loop.now)
                state.sources = ("standby",)
                self.stats.standby_queries += 1
                self._arm(state, self._timeout(state))
                self.standby.issue_query(query)
            else:
                self.stats.shed_queries += 1
                self.fail(
                    query,
                    "circuit breaker open: primary backend shedding load")
            return
        state = self._inflight[query.id] = _Guarded(query, self._loop.now)
        if verdict == "probe":
            state.probe = True
            self.stats.probe_queries += 1
        self._arm(state, self._timeout(state),
                  hedge=None if state.probe else self.hedge_delay)
        self.primary.issue_query(query)

    # -- timers -----------------------------------------------------------------

    def _timeout(self, state: _Guarded) -> float:
        """The deadline from now, never past the query's total budget."""
        deadline = self.attempt_timeout
        if self.total_timeout is not None:
            deadline = max(
                0.0,
                min(deadline,
                    self.total_timeout - (self._loop.now - state.started)),
            )
        return deadline

    #: Streaming progress pushes the deadline back (the backend is
    #: alive); hedges and failovers never do.
    _advanced = _timeout

    def _expired(self, state: _Guarded) -> None:
        self._resolve(state)
        if "primary" in state.sources:
            self._primary_failed(state)
        self.stats.deadline_failures += 1
        where = "primary or standby" if state.hedged else state.sources[0]
        self.fail(
            state.query,
            f"no response from {where} within {self.attempt_timeout:g}s")

    def _primary_failed(self, state: _Guarded) -> None:
        self.stats.primary_failures += 1
        self.breaker.record_failure(probe=state.probe)

    def _ask_standby(self, state: _Guarded, sources) -> None:
        # The one standby attempt: a failover takes the hedge's place.
        state.hedged, state.hedge_at = True, inf
        # The standby's stream starts over at seq 0; both attempts draw
        # the same per-query stream plan, so whichever source is ahead
        # after the restart screens clean without double-counting.
        self._restart(state, sources)
        self.standby.issue_query(state.query)

    def _hedge(self, state: _Guarded) -> None:
        self.stats.hedged_queries += 1
        self._ask_standby(state, ("primary", "standby"))

    # -- completions ------------------------------------------------------------

    def _absorbed(self, chunk: bool) -> None:
        # Duplicate, hedge loser, post-deadline straggler, or anything
        # more from a source that already answered flawed.
        self.stats.filtered_completions += 1

    def _clean(self, state: _Guarded, source: str, responses) -> None:
        self._resolve(state)
        if source == "primary":
            self.breaker.record_success(probe=state.probe)
        else:
            self.stats.standby_completions += 1
            if state.hedged:
                self.stats.hedge_wins += 1
        self.complete(state.query, responses)

    def _flawed(self, state: _Guarded, source: str, reason: str,
                failure) -> None:
        state.sources = tuple(s for s in state.sources if s != source)
        if source == "primary":
            self._primary_failed(state)
            if self.standby is not None and not state.hedged:
                # Fail over immediately rather than waiting out the
                # deadline on a primary that already answered badly.
                self.stats.failovers += 1
                self._ask_standby(state, ("standby",))
                return
        if not state.sources:  # nobody left who could still answer
            self._resolve(state)
            self.fail(state.query, reason)
