"""Retry/deadline wrapper that makes a flaky SUT presentable.

``ResilientSUT`` is the submitter-side mirror of the referee hardening:
it wraps an unreliable backend and enforces a per-attempt deadline,
bounded retries with seeded full-jitter exponential backoff (so a fleet
of retriers recovering together cannot stampede the backend in
lockstep), and response hygiene
(duplicate and unsolicited completions are filtered, malformed response
sets are retried).  With :attr:`RetryPolicy.total_timeout` set, retries
plus backoff are additionally capped by a per-query wall-clock budget.
Transient faults - drops, latency spikes - are recovered at the cost of
the retry latency; permanent ones are reported to the LoadGen as
recorded failures (:meth:`SutBase.fail`) so the run terminates with a
clean INVALID verdict instead of hanging.

All timing runs on the run's event loop, so resilience behavior is as
deterministic and virtual-time-fast as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_range
from ..core.events import EventLoop
from ..core.query import Query
from ..core.sut import Responder, SystemUnderTest
from ..metrics import MetricsRegistry, export_ledger, exported
from .filtering import Attempt, AttemptSUT

#: Domain-separation tag mixed into the backoff-jitter seed stream so it
#: can never collide with the fault injector's (seed, query, attempt)
#: streams.
_JITTER_TAG = 0xBAC0FF

#: Each retry's backoff ceiling is this multiple of the one before.
_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters for :class:`ResilientSUT`."""

    #: Total attempts per query (first try included).
    max_attempts: int = 4
    #: Per-attempt deadline, seconds: how long to wait for the inner SUT
    #: before declaring the attempt lost.
    attempt_timeout: float = 0.050
    #: Backoff before attempt ``n`` retries: ``base * 2**(n-1)``.
    backoff_base: float = 0.002
    #: ``"full"`` draws the actual delay uniformly from ``[0, backoff)``
    #: per (seed, query, attempt) - concurrent retriers decorrelate
    #: instead of stampeding a recovering backend in lockstep.
    #: ``"none"`` keeps the deterministic ceiling itself.
    jitter: str = "full"
    #: Hard per-query wall: across *all* attempts and backoffs, a query
    #: is given up once this much run time has elapsed since its first
    #: issue.  ``None`` bounds a query only by
    #: ``max_attempts x (timeout + backoff)`` - which stacked wrappers
    #: can push past ``TestSettings.watchdog_timeout``.
    total_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        check_range("max_attempts", self.max_attempts, AT_LEAST_ONE)
        check_range("attempt_timeout", self.attempt_timeout, POSITIVE)
        check_range("backoff_base", self.backoff_base, NON_NEGATIVE)
        if self.jitter not in ("full", "none"):
            raise ValueError(
                f"jitter must be 'full' or 'none', got {self.jitter!r}"
            )
        if (self.total_timeout is not None
                and not self.total_timeout >= self.attempt_timeout):
            raise ValueError(
                "total_timeout must be >= attempt_timeout (one attempt "
                f"must fit), got {self.total_timeout} < "
                f"{self.attempt_timeout}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff ceiling before re-issuing after losing ``attempt``
        (0-based).  With full jitter the actual delay is drawn uniformly
        below this ceiling (:meth:`jittered_backoff`)."""
        return self.backoff_base * (_BACKOFF_FACTOR ** attempt)

    def jittered_backoff(self, attempt: int, seed: int, query_id: int) -> float:
        """The delay actually slept: full jitter over :meth:`backoff`.

        The draw is a pure function of ``(seed, query_id, attempt)`` -
        deterministic and replayable like everything else in the run,
        yet decorrelated across queries and across retriers with
        different seeds, so synchronized retries cannot stampede a
        recovering backend.
        """
        ceiling = self.backoff(attempt)
        if self.jitter == "none" or ceiling <= 0.0:
            return ceiling
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, query_id, attempt, _JITTER_TAG))
        )
        return float(rng.uniform(0.0, ceiling))


@dataclass
class ResilienceStats:
    """What the wrapper did during one run; every field is exported as
    the ``resilient_*`` counter it names."""

    retries: int = exported(
        "resilient_retries_total",
        "Attempts re-issued after a lost or malformed attempt")
    recovered_queries: int = exported(
        "resilient_recovered_queries_total",
        "Queries that succeeded only after at least one retry")
    gave_up_queries: int = exported(
        "resilient_gave_up_queries_total",
        "Queries reported as failures after exhausting all attempts")
    filtered_completions: int = exported(
        "resilient_filtered_completions_total",
        "Duplicate/straggler/unsolicited completions absorbed")
    malformed_attempts: int = exported(
        "resilient_malformed_attempts_total",
        "Attempts whose response set was unusable")

    def summary(self) -> str:
        return (
            f"retries={self.retries} recovered={self.recovered_queries} "
            f"gave_up={self.gave_up_queries} "
            f"filtered={self.filtered_completions} "
            f"malformed={self.malformed_attempts}"
        )


class ResilientSUT(AttemptSUT):
    """Bounded retry + per-attempt deadline around an inner SUT."""

    def __init__(
        self,
        inner: SystemUnderTest,
        policy: Optional[RetryPolicy] = None,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(name or f"resilient[{inner.name}]")
        self.inner = inner
        self.inners = (inner,)
        self.policy = policy if policy is not None else RetryPolicy()
        self.seed = seed
        self.stats = ResilienceStats()
        if registry is not None:
            export_ledger(registry, lambda: self.stats)

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = ResilienceStats()
        self.inner.start_run(loop, self._receiver())

    def issue_query(self, query: Query) -> None:
        state = self._inflight[query.id] = Attempt(query, self._loop.now)
        self._attempt(state)

    # -- attempts ---------------------------------------------------------------

    def _budget_left(self, state: Attempt) -> Optional[float]:
        """Run time remaining in the query's total budget (None: uncapped)."""
        if self.policy.total_timeout is None:
            return None
        return self.policy.total_timeout - (self._loop.now - state.started)

    def _timeout(self, state: Attempt) -> float:
        """The attempt's deadline from now.  It never drifts past the
        budget: the final attempt gets only what is left of it."""
        remaining = self._budget_left(state)
        if remaining is None:
            return self.policy.attempt_timeout
        return max(0.0, min(self.policy.attempt_timeout, remaining))

    #: Streaming progress resets the per-attempt deadline: the attempt
    #: is alive, so the timeout meters the gap between chunks rather
    #: than the whole stream.
    _advanced = _timeout

    def _give_up(self, state: Attempt, reason: str) -> None:
        self._resolve(state)
        self.stats.gave_up_queries += 1
        self.fail(state.query, reason)

    def _attempt(self, state: Attempt) -> None:
        timeout = self._timeout(state)
        if timeout <= 0:
            self._give_up(state, self._budget_reason(state))
            return
        self._arm(state, timeout)
        self.inner.issue_query(state.query)

    def _budget_reason(self, state: Attempt) -> str:
        return (
            f"retry budget exhausted: {self.policy.total_timeout:g}s "
            f"total_timeout spent over {state.tries + 1} attempts"
        )

    def _expired(self, state: Attempt) -> None:
        """The attempt is lost: back off and retry, or give up."""
        if state.tries + 1 >= self.policy.max_attempts:
            self._give_up(
                state,
                f"no valid response after {self.policy.max_attempts} attempts",
            )
            return
        backoff = self.policy.jittered_backoff(
            state.tries, self.seed, state.query.id)
        remaining = self._budget_left(state)
        if remaining is not None:
            if remaining <= 0:
                self._give_up(state, self._budget_reason(state))
                return
            # Clamp the sleep so the retry wakes with budget to spend:
            # a jittered backoff that overruns ``total_timeout`` would
            # otherwise schedule an attempt guaranteed to be classified
            # budget-exhausted on arrival - a burned retry.  The final
            # attempt is left ``attempt_timeout`` of runway when the
            # budget still has it, and whatever remains when it does not.
            backoff = min(
                backoff,
                max(0.0, remaining - self.policy.attempt_timeout))
        state.tries += 1
        self.stats.retries += 1
        self._loop.schedule_after(backoff, lambda: self._reissue(state))

    def _reissue(self, state: Attempt) -> None:
        if self._live(state):
            self._restart(state)
            self._attempt(state)

    # -- inner completions ------------------------------------------------------

    def _absorbed(self, chunk: bool) -> None:
        # The resilience layer swallows it so the referee never sees it.
        self.stats.filtered_completions += 1

    def _flawed(self, state: Attempt, source, reason: str, failure) -> None:
        if state.deadline == inf:
            # Nothing armed: backing off after a lost attempt, whose
            # re-issue is already scheduled.  This is that attempt failing
            # late, not a new loss.
            self._absorbed(False)
            return
        # A bad attempt is a lost attempt; retry now rather than waiting
        # out the deadline (which must not fire into the backoff).
        self.stats.malformed_attempts += 1
        state.deadline = inf
        self._expired(state)

    def _clean(self, state: Attempt, source, responses) -> None:
        self._resolve(state)
        if state.tries > 0:
            self.stats.recovered_queries += 1
        self.complete(state.query, responses)
