"""A fault-injecting wrapper around any :class:`SystemUnderTest`.

``FaultySUT`` sits between the LoadGen and a real SUT on the event loop
and perturbs the completion stream according to a deterministic
:class:`~repro.faults.plan.FaultPlan`.  It exercises exactly the
misbehavior the hardened referee must survive: dropped and duplicated
completions, completions for phantom queries, mis-sized and corrupted
response sets, latency spikes, and a full SUT crash.  The wrapped SUT is
never told it is being sabotaged - like a real flaky runtime, it does
its work and the failures happen on the wire.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from ..core.query import (Query, QueryFailure, QuerySample,
                          QuerySampleResponse, StreamChunk)
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..core.events import EventLoop
from ..metrics import MetricsRegistry
from .plan import FaultDecision, FaultInjector, FaultPlan, FaultType

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
                self.injector.plan.duplicate_lag,
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


class OutageSUT(SutBase):
    """Total backend outage for a scheduled time window.

    Unlike :class:`FaultySUT`'s probabilistic per-query faults, this
    wrapper models the failure the circuit breaker exists for: the
    backend is perfectly healthy, then answers *nothing* for
    ``[outage_start, outage_start + outage_duration)`` on the run clock,
    then is healthy again.  Queries issued during the window are
    swallowed (their completions never happen), so only a deadline or
    breaker above can save the run.  Used by the self-healing tests and
    the ``benchmarks/test_ext_durability.py`` outage study.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        outage_start: float,
        outage_duration: float,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"outage[{inner.name}]")
        if outage_duration < 0:
            raise ValueError(
                f"outage_duration must be >= 0, got {outage_duration}")
        self.inner = inner
        self.inners = (inner,)
        self.outage_start = outage_start
        self.outage_duration = outage_duration
        #: Queries swallowed by the outage window.
        self.blackholed = 0

    def in_outage(self, time: float) -> bool:
        return (self.outage_start <= time
                < self.outage_start + self.outage_duration)

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.blackholed = 0
        self.inner.start_run(loop, self._gate)

    def issue_query(self, query: Query) -> None:
        if self.in_outage(self.loop.now):
            self.blackholed += 1
            return
        self.inner.issue_query(query)

    def _gate(self, query: Query, responses) -> None:
        # Completions are dropped during the window too: a down backend
        # does not deliver answers for work it accepted just before.
        if self.in_outage(self.loop.now):
            self.blackholed += 1
            return
        self.complete(query, responses)


class BrownoutSUT(SutBase):
    """A slow-replica brownout: alive but degraded for a time window.

    The gray-failure counterpart of :class:`OutageSUT`: during
    ``[brownout_start, brownout_start + brownout_duration)`` on the run
    clock every completion is held back an extra ``extra_latency``
    seconds before being delivered.  The backend still answers - health
    checks that only test liveness stay green - which is exactly the
    failure mode latency-aware balancing policies
    (``repro.fleet.WeightedP99Policy``) and per-replica deadlines exist
    to contain.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        brownout_start: float,
        brownout_duration: float,
        extra_latency: float,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"brownout[{inner.name}]")
        if brownout_duration < 0:
            raise ValueError(
                f"brownout_duration must be >= 0, got {brownout_duration}")
        if extra_latency <= 0:
            raise ValueError(
                f"extra_latency must be positive, got {extra_latency}")
        self.inner = inner
        self.inners = (inner,)
        self.brownout_start = brownout_start
        self.brownout_duration = brownout_duration
        self.extra_latency = extra_latency
        #: Completions delayed by the brownout window.
        self.slowed = 0

    def in_brownout(self, time: float) -> bool:
        return (self.brownout_start <= time
                < self.brownout_start + self.brownout_duration)

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.slowed = 0
        self.inner.start_run(loop, self._gate)

    def issue_query(self, query: Query) -> None:
        self.inner.issue_query(query)

    def _gate(self, query: Query, responses) -> None:
        if self.in_brownout(self.loop.now):
            self.slowed += 1
            self.loop.schedule_after(
                self.extra_latency,
                lambda: self.complete(query, responses))
            return
        self.complete(query, responses)


class DegradedSUT(SutBase):
    """A controllable gray-failure valve around one replica backend.

    Where :class:`OutageSUT` / :class:`BrownoutSUT` carry their own
    fixed time window, this wrapper is *driven*: the chaos orchestrator
    (:mod:`repro.faults.chaos`) flips it between three modes at
    scheduled virtual times -

    * **healthy** (the default, and what :meth:`restore` returns to):
      transparent pass-through;
    * **degraded** (:meth:`degrade`): every delivery - chunks included -
      is held back by ``(factor - 1)`` times the time the query has
      already spent in the backend, so a 10x factor turns a 2ms replica
      into a 20ms one *proportionally*, the thermal-throttling /
      background-load signature MLPerf Mobile describes.  Breakers stay
      closed as long as the stretched latency still beats the attempt
      deadline: the replica is sick, not dead - only a latency-aware
      outlier detector can see it;
    * **partitioned** (:meth:`partition`): the asymmetric failure -
      issues still reach the backend (the forward path is fine) but
      every delivery is dropped, modelling a one-way network partition.

    Mode changes apply to deliveries from that moment on, in-flight
    queries included.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        factor: float = 1.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"degraded[{inner.name}]")
        self.inner = inner
        self.inners = (inner,)
        self._factor = 1.0
        self._partitioned = False
        if factor != 1.0:
            self.degrade(factor)
        #: Deliveries held back by the latency multiplier.
        self.slowed = 0
        #: Deliveries dropped by the partition.
        self.blackholed = 0
        self._issued_at: Dict[int, float] = {}

    @property
    def factor(self) -> float:
        return self._factor

    @property
    def healthy(self) -> bool:
        return self._factor == 1.0 and not self._partitioned

    def degrade(self, factor: float) -> None:
        """Stretch every delivery to ``factor`` times its backend time."""
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self._factor = factor

    def partition(self) -> None:
        """Drop deliveries while still accepting issues (asymmetric)."""
        self._partitioned = True

    def restore(self) -> None:
        """Back to healthy pass-through (clears both failure modes)."""
        self._factor = 1.0
        self._partitioned = False

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.restore()
        self.slowed = 0
        self.blackholed = 0
        self._issued_at = {}
        self.inner.start_run(loop, self._gate)

    def issue_query(self, query: Query) -> None:
        # The issue instant is recorded even while healthy: degrade() and
        # partition() apply to queries already in flight, and the stretch
        # is measured from when the valve saw the query.
        loop = self._loop
        self._issued_at[query.id] = (
            loop.clock.now() if loop.realtime else loop.clock._now)
        self.inner.issue_query(query)

    def _gate(self, query: Query, responses) -> None:
        """Every delivery from the backend: drop it, hold it back, or
        pass it on.  A healthy valve forwards without reading the clock
        (its stretch is exactly zero); a degraded one reads it once for
        both the stretch and a missing issue instant - under
        ``loop.realtime`` that used to be two readings a moment apart,
        on the virtual clock the two were always equal."""
        issued_at = self._issued_at
        if type(responses) is list or not isinstance(responses, StreamChunk):
            since = issued_at.pop(query.id, None)  # terminal: forget it
        else:
            since = issued_at.get(query.id)
        if self._partitioned:
            self.blackholed += 1
            return
        if self._factor != 1.0 and since is not None:
            loop = self._loop
            now = loop.clock.now() if loop.realtime else loop.clock._now
            extra = (self._factor - 1.0) * (now - since)
            if extra > 0:
                self.slowed += 1
                loop.schedule_after(
                    extra, lambda: self.complete(query, responses))
                return
        self._responder(query, responses)
