"""Fault-injecting wrappers around any :class:`SystemUnderTest`.

``FaultySUT`` sits between the LoadGen and a real SUT on the event loop
and perturbs the completion stream according to a deterministic
:class:`~repro.faults.plan.FaultPlan`.  It exercises exactly the
misbehavior the hardened referee must survive: dropped and duplicated
completions, completions for phantom queries, mis-sized and corrupted
response sets, latency spikes, and a full SUT crash.  The wrapped SUT is
never told it is being sabotaged - like a real flaky runtime, it does
its work and the failures happen on the wire.

``WindowedSUT`` is the other kind of fault: not a draw per query but a
time window - an outage, a one-way partition, a proportional stretch -
over everything that passes.  ``OutageSUT`` and ``DegradedSUT`` are two
ways of building one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import inf
from typing import Dict, List, Optional, Sequence, Union

from ..bounds import (AT_LEAST_ONE, DURATION_OR_FOREVER, FINITE,
                      check_range)
from ..core.query import (Query, QueryFailure, QuerySample,
                          QuerySampleResponse, StreamChunk)
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..core.events import EventLoop
from ..metrics import MetricsRegistry
from .plan import DUPLICATE_LAG, FaultInjector, FaultPlan, FaultType

#: Offset added to sample ids by the CORRUPT fault, large enough to
#: never collide with real ids issued by the QueryFactory.
_CORRUPT_ID_OFFSET = 1_000_000_007

#: Base for phantom query ids fabricated by the UNSOLICITED fault.
_PHANTOM_ID_BASE = 2_000_000_000


class FaultySUT(SutBase):
    """Injects plan-scheduled faults around an inner SUT.

    Faults that need a completion to act on (drop, duplicate, delay,
    missized, corrupt, unsolicited) are applied when the inner SUT
    completes; STALL acts at issue time and silently swallows that query
    and every later one, modelling a crashed backend.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        plan_or_injector: Union[FaultPlan, FaultInjector],
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name or f"faulty[{inner.name}]")
        self.inner = inner
        self.inners = (inner,)
        self.injector = (
            plan_or_injector
            if isinstance(plan_or_injector, FaultInjector)
            else FaultInjector(plan_or_injector)
        )
        self.crashed = False
        self._attempts: dict = {}
        self._decisions: dict = {}
        self._phantom_ids = itertools.count(_PHANTOM_ID_BASE)
        self._injected = (
            registry.counter(
                "faults_injected_total",
                "Faults the injector applied to the completion stream",
                labels=("fault",),
            )
            if registry is not None
            else None
        )

    def _count_fault(self, fault: FaultType) -> None:
        if self._injected is not None:
            self._injected.labels(fault=fault.value).inc()

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.crashed = False
        self._attempts = {}
        self._decisions = {}
        self._phantom_ids = itertools.count(_PHANTOM_ID_BASE)
        self.injector.reset()
        self.inner.start_run(loop, self._intercept)

    def issue_query(self, query: Query) -> None:
        if self.crashed:
            return  # a crashed SUT swallows everything, silently
        attempt = self._attempts.get(query.id, 0)
        self._attempts[query.id] = attempt + 1
        decision = self.injector.decide(query.id, attempt)
        if decision is not None and decision.fault is FaultType.STALL:
            self.crashed = True
            self._count_fault(FaultType.STALL)
            return
        self._decisions[query.id] = decision
        self.inner.issue_query(query)

    def flush(self) -> None:
        if not self.crashed:
            self.inner.flush()

    # -- the wire ---------------------------------------------------------------

    def _intercept(self, query: Query, responses) -> None:
        decision = self._decisions.pop(query.id, None)
        if decision is None or isinstance(responses, QueryFailure):
            self.complete(query, responses)
            return
        fault = decision.fault
        self._count_fault(fault)

        if fault is FaultType.DROP:
            return  # the response vanishes

        if fault is FaultType.DELAY:
            self.loop.schedule_after(
                decision.delay, lambda: self.complete(query, responses)
            )
            return

        if fault is FaultType.DUPLICATE:
            self.complete(query, responses)
            twin = list(responses)
            self.loop.schedule_after(
                DUPLICATE_LAG,
                lambda: self.complete(query, twin),
            )
            return

        if fault is FaultType.MISSIZED:
            self.complete(query, self._missize(responses))
            return

        if fault is FaultType.CORRUPT:
            corrupted = [
                QuerySampleResponse(r.sample_id + _CORRUPT_ID_OFFSET, r.data)
                for r in responses
            ]
            self.complete(query, corrupted)
            return

        if fault is FaultType.UNSOLICITED:
            # The genuine answer still arrives; an extra completion for
            # a query the LoadGen never issued rides along with it.
            self.complete(query, responses)
            phantom_sample = QuerySample(id=next(self._phantom_ids), index=0)
            phantom = Query(
                id=next(self._phantom_ids),
                samples=(phantom_sample,),
                issue_time=self.loop.now,
            )
            self.complete(
                phantom, [QuerySampleResponse(phantom_sample.id, None)]
            )
            return

        # pragma: no cover - exhaustive over FaultType minus STALL
        raise AssertionError(f"unhandled fault {fault}")

    @staticmethod
    def _missize(responses: List[QuerySampleResponse]) -> List[QuerySampleResponse]:
        """Return a response set with the wrong cardinality."""
        if len(responses) > 1:
            return responses[:-1]
        # A single-sample query cannot lose a response and stay
        # non-empty in an interesting way; grow it instead.
        extra_id = (responses[0].sample_id if responses else 0) + _CORRUPT_ID_OFFSET
        return list(responses) + [QuerySampleResponse(extra_id, None)]


#: What a :class:`Window` does while it is in force.
EFFECTS = ("outage", "partition", "stretch")


@dataclass(frozen=True)
class Window:
    """A fault in force for ``start <= now < end`` on the run clock
    (``end = inf`` while open-ended).  An ``"outage"`` refuses the issue
    and drops the delivery, a ``"partition"`` (one-way) drops the
    delivery only, a ``"stretch"`` holds each delivery back by
    ``(factor - 1)`` times the time since the valve saw its issue - the
    proportional thermal-throttling signature MLPerf Mobile describes.
    """

    start: float
    end: float
    effect: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.effect not in EFFECTS:
            raise ValueError(
                f"unknown window effect {self.effect!r}; "
                f"known: {', '.join(EFFECTS)}")
        if self.effect == "stretch":
            check_range("factor", self.factor, AT_LEAST_ONE)
        check_range("window start", self.start, FINITE)
        if not self.start <= self.end:  # NaN included
            raise ValueError(
                f"window end must be >= its start, got {self.end}")


class WindowedSUT(SutBase):
    """The one fault valve: :class:`Window` s applied at issue and at
    delivery.  ``windows`` are back in place at every ``start_run``;
    :meth:`open_window` / :meth:`close_window` add and end one mid-run.
    A dropping window wins, else the largest stretch applies, to
    deliveries from that instant on, in-flight queries included - so
    every forwarded issue is stamped.  A valve with nothing in force and
    nothing ahead forwards deliveries without reading the clock.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        windows: Sequence[Window] = (),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"windowed[{inner.name}]")
        self.inner = inner
        self.inners = (inner,)
        self._fixed = tuple(windows)
        #: The windows in force or ahead (an ended one is forgotten the
        #: next time the valve reads the clock).
        self.windows: List[Window] = list(self._fixed)
        #: Deliveries held back by a stretch.
        self.slowed = 0
        #: Issues refused and deliveries dropped.
        self.blackholed = 0
        self._issued_at: Dict[int, float] = {}

    def open_window(self, effect: str, factor: float = 1.0) -> Window:
        """Put a window in force from now until :meth:`close_window`."""
        # Checked before the clock is read: a bad value is named even
        # on a valve that never started.
        window = replace(Window(0.0, inf, effect, factor),
                         start=self.loop.now)
        self.windows.append(window)
        self._settle(window.start)
        return window

    def close_window(self, window: Window) -> None:
        """End ``window`` now; one the valve no longer holds is ignored."""
        if window in self.windows:
            self.windows.remove(window)
            self._settle(self.loop.now)

    def _settle(self, now: float) -> None:
        """Forget ended windows; note what is in force at ``now`` and
        when that next changes, which is all the hot paths read."""
        self.windows = live = [w for w in self.windows if w.end > now]
        force = [w.effect for w in live if w.start <= now]
        self._refuse = "outage" in force
        self._drop = self._refuse or "partition" in force
        self._stretch = max([w.factor for w in live if w.start <= now
                             and w.effect == "stretch"], default=1.0)
        self._until = min([w.start if w.start > now else w.end
                           for w in live], default=inf)

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.windows = list(self._fixed)
        self._settle(loop.now)
        self.slowed = 0
        self.blackholed = 0
        self._issued_at = {}
        self.inner.start_run(loop, self._gate)

    def issue_query(self, query: Query) -> None:
        now = self._loop.clock.now()
        if now >= self._until:
            self._settle(now)
        if self._refuse:
            self.blackholed += 1
            return
        self._issued_at[query.id] = now
        self.inner.issue_query(query)

    def _gate(self, query: Query, responses) -> None:
        """Every delivery from the backend: drop it, hold it back, or
        pass it on."""
        issued_at = self._issued_at
        if type(responses) is list or not isinstance(responses, StreamChunk):
            since = issued_at.pop(query.id, None)  # terminal: forget it
        else:
            since = issued_at.get(query.id)
        if self.windows:
            loop = self._loop
            now = loop.clock.now()
            if now >= self._until:
                self._settle(now)
            if self._drop:
                self.blackholed += 1
                return
            if self._stretch != 1.0 and since is not None:
                extra = (self._stretch - 1.0) * (now - since)
                if extra > 0:
                    self.slowed += 1
                    loop.schedule_after(
                        extra, lambda: self.complete(query, responses))
                    return
        self._responder(query, responses)


class OutageSUT(WindowedSUT):
    """A backend that answers *nothing* - issues refused, deliveries
    dropped - for ``[outage_start, outage_start + outage_duration)`` on
    the run clock (an infinite duration is permanent): the failure a
    deadline or breaker above exists for (``StackSpec.outage``, the
    ``benchmarks/test_ext_durability.py`` outage study)."""

    def __init__(
        self,
        inner: SystemUnderTest,
        outage_start: float,
        outage_duration: float,
        name: Optional[str] = None,
    ) -> None:
        check_range("outage_duration", outage_duration, DURATION_OR_FOREVER)
        window = Window(outage_start, outage_start + outage_duration, "outage")
        super().__init__(inner, (window,), name or f"outage[{inner.name}]")


class DegradedSUT(WindowedSUT):
    """A valve with no window of its own, flipped by hand or by the
    chaos orchestrator: a degraded replica is sick, not dead - breakers
    stay closed while its stretched latency beats the attempt deadline,
    so only a latency-aware outlier detector sees it."""

    def __init__(self, inner: SystemUnderTest,
                 name: Optional[str] = None) -> None:
        super().__init__(inner, name=name or f"degraded[{inner.name}]")

    def degrade(self, factor: float) -> None:
        """Stretch every delivery to ``factor`` times its backend time,
        in place of any earlier degrade."""
        stale = [w for w in self.windows if w.effect == "stretch"]
        self.open_window("stretch", factor)
        for window in stale:
            self.close_window(window)

    def partition(self) -> None:
        """Drop deliveries while still accepting issues (asymmetric)."""
        self.open_window("partition")

    def restore(self) -> None:
        """Back to healthy pass-through (closes every window)."""
        for window in tuple(self.windows):
            self.close_window(window)
