"""Circuit breaker: failure-rate tripping, timed recovery probes.

The serving path's self-healing layer needs a fast, local decision:
"is the primary backend healthy enough to send this query to?".  The
:class:`CircuitBreaker` answers it with the classic three-state machine:

* **closed** — traffic flows; outcomes feed a sliding window.  When the
  window holds at least ``min_samples`` outcomes and the failure rate
  reaches ``failure_threshold``, the breaker trips open.
* **open** — every admission is rejected instantly (no deadline burned,
  no queue built) until ``open_duration`` has elapsed on the run clock.
* **half-open** — up to ``half_open_probes`` trial queries are admitted;
  ``half_open_probes`` consecutive successes close the breaker, a single
  probe failure re-opens it for another ``open_duration``.

Time comes from an injected ``clock`` callable (the run loop's ``now``),
so breaker behavior is as deterministic and virtual-time-fast as the
rest of the stack.  State transitions are recorded with timestamps and
mirrored to the ``breaker_*`` metric families by the self-healing SUT
(``repro.durability.healing``); see ``docs/durability.md`` for the state
machine diagram.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..bounds import AT_LEAST_ONE, FRACTION, POSITIVE, check_range


class BreakerState(enum.Enum):
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Numeric encoding of :class:`BreakerState` for the ``breaker_state``
#: gauge (Prometheus convention: enum states export as small integers).
STATE_CODES = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs for :class:`CircuitBreaker`."""

    #: Sliding outcome window size (most recent admissions, closed state).
    window: int = 20
    #: Failure rate in the window that trips the breaker open.
    failure_threshold: float = 0.5
    #: Minimum outcomes in the window before the rate is trusted.
    min_samples: int = 10
    #: Seconds the breaker stays open before probing (run-clock time).
    open_duration: float = 1.0
    #: Probe admissions in half-open; this many consecutive successes
    #: close the breaker, one failure re-opens it.
    half_open_probes: int = 3

    def __post_init__(self) -> None:
        check_range("window", self.window, AT_LEAST_ONE)
        check_range("failure_threshold", self.failure_threshold, FRACTION)
        if not 1 <= self.min_samples <= self.window:
            raise ValueError(
                f"min_samples must be in [1, window], got {self.min_samples}")
        check_range("open_duration", self.open_duration, POSITIVE)
        check_range("half_open_probes", self.half_open_probes, AT_LEAST_ONE)


@dataclass
class BreakerStats:
    """Cumulative admission/outcome accounting."""

    admitted: int = 0
    rejected: int = 0
    probes: int = 0
    opens: int = 0
    closes: int = 0
    recorded_failures: int = 0
    recorded_successes: int = 0


class CircuitBreaker:
    """Failure-rate circuit breaker on an injected clock.

    Single-writer like the rest of the run machinery: all calls happen
    on the run's event loop, so no locking is needed.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float],
        on_transition: Optional[
            Callable[[float, BreakerState, BreakerState], None]] = None,
    ) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.stats = BreakerStats()
        #: ``(time, source_state, target_state)`` transition log.
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []
        self._window: Deque[bool] = deque(maxlen=self.policy.window)
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._probe_successes = 0

    # -- admission --------------------------------------------------------------

    def admit(self) -> str:
        """Decide one admission: ``"admit"``, ``"probe"``, or ``"reject"``.

        A ``"probe"`` admission must be reported back via
        :meth:`record_success`/:meth:`record_failure` with ``probe=True``
        so the half-open bookkeeping closes or re-opens the breaker.
        """
        if self.state is BreakerState.OPEN:
            if self._clock() - self._opened_at >= self.policy.open_duration:
                self._transition(BreakerState.HALF_OPEN)
            else:
                self.stats.rejected += 1
                return "reject"
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_inflight < self.policy.half_open_probes:
                self._probes_inflight += 1
                self.stats.probes += 1
                return "probe"
            self.stats.rejected += 1
            return "reject"
        self.stats.admitted += 1
        return "admit"

    @property
    def failure_rate(self) -> float:
        """Failure fraction of the current closed-state window."""
        if not self._window:
            return 0.0
        return sum(1 for ok in self._window if not ok) / len(self._window)

    # -- outcomes ---------------------------------------------------------------

    def record_success(self, *, probe: bool = False) -> None:
        self.stats.recorded_successes += 1
        if probe and self.state is BreakerState.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.policy.half_open_probes:
                self._transition(BreakerState.CLOSED)
                self.stats.closes += 1
        elif self.state is BreakerState.CLOSED:
            self._window.append(True)
        # Stragglers arriving in other states carry no signal: the
        # breaker already acted on fresher information.

    def record_failure(self, *, probe: bool = False) -> None:
        self.stats.recorded_failures += 1
        if probe and self.state is BreakerState.HALF_OPEN:
            self._trip()
        elif self.state is BreakerState.CLOSED:
            self._window.append(False)
            if (len(self._window) >= self.policy.min_samples
                    and self.failure_rate >= self.policy.failure_threshold):
                self._trip()

    # -- internals --------------------------------------------------------------

    def _trip(self) -> None:
        self._transition(BreakerState.OPEN)
        self.stats.opens += 1

    def _transition(self, target: BreakerState) -> None:
        source, self.state = self.state, target
        now = self._clock()
        if target is BreakerState.OPEN:
            self._opened_at = now
        self._window.clear()
        self._probes_inflight = 0
        self._probe_successes = 0
        self.transitions.append((now, source, target))
        if self._on_transition is not None:
            self._on_transition(now, source, target)
