"""Seeded chaos orchestration: correlated, fleet-wide failure drills.

Everything in :mod:`repro.faults` so far fails one thing at a time - a
query, a replica, a time window on one backend.  Real incidents are
*correlated*: a whole availability zone goes dark, a rack browns out
together, a switch drops one direction of traffic.  The
:class:`ChaosOrchestrator` is a :class:`~repro.core.loadgen.RunService`
that drives exactly those scenarios against a
:class:`~repro.fleet.replicaset.ReplicaSet`, from a schedule that is
either hand-written or generated deterministically from
``SeedSequence((seed, 0xC4A05))``.

Scenario vocabulary (one :class:`ChaosEvent` each, see
``docs/chaos.md``):

* ``"zone-outage"`` - every replica in the target zone is killed at
  once (:meth:`~repro.fleet.replicaset.ReplicaSet.kill_zone`; in-flight
  queries rescued onto survivors, session prefixes warmed into the
  rescue caches) and restored when the window closes;
* ``"gray-failure"`` - a ``stretch`` window on the target replica's
  valve stretches every delivery by the event's ``severity`` factor:
  alive, answering, breakers closed, p99 ruined - the outlier
  detector's quarry;
* ``"partition"`` - a ``partition`` window on the target replica's
  valve: issues still reach the backend, deliveries are dropped.

Each event is one window of its own: overlapping events on one replica
stack on its valve (a partition wins over a stretch, the larger stretch
wins over the smaller) and each recovery closes only its own window; a
zone comes back when the last outage open on it closes.

The orchestrator ticks every 25 ms of run time and applies
whatever transitions are due, emitting one :class:`ChaosDecision` per
tick (holds included) exactly like the autoscaler's
:class:`~repro.fleet.autoscaler.ScalingDecision` trace - the
bit-identical-across-same-seed-runs witness the chaos acceptance tests
assert.  Fault windows are exported as :class:`ChaosWindow` rows for the
Chrome trace (``repro.core.trace.to_chrome_trace(chaos=...)``) and as
``chaos_*`` metric families (``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_range
from ..core.events import EventLoop
from ..core.loadgen import Ticker
from ..core.sut import SystemUnderTest
from ..metrics import MetricsRegistry
from .sut import DegradedSUT, Window

#: Domain-separation tag for the chaos schedule RNG (mixed with the run
#: seed), disjoint from the balancer/jitter/session/probe streams.
CHAOS_TAG = 0xC4A05

#: Each kind's window effect (a zone outage is checked as one, and
#: acted out by the fleet's own zone verbs).
_VALVE_EFFECT = {"zone-outage": "outage", "gray-failure": "stretch",
                 "partition": "partition"}

#: The scenario vocabulary.
CHAOS_KINDS = tuple(_VALVE_EFFECT)

#: The range a generated gray failure draws its latency stretch from.
SEVERITY_RANGE = (4.0, 16.0)


class ChaosEvent(NamedTuple):
    """One scheduled fault window.

    ``target`` is a zone name for ``"zone-outage"`` and ``"replica:N"``
    for the per-replica kinds; ``severity`` is the latency multiplier
    for ``"gray-failure"`` (unused, 0.0, for the others).
    """

    time: float
    duration: float
    kind: str
    target: str
    severity: float = 0.0


class ChaosDecision(NamedTuple):
    """One orchestrator tick: what it did (mirrors ScalingDecision)."""

    time: float
    kind: str    # event kind, or "" for a hold tick
    target: str  # event target, or "" for a hold tick
    action: str  # "inject" | "recover" | "hold"
    active: int  # fault windows open after this tick


@dataclass
class ChaosWindow:
    """One fault window as actually applied (for the Chrome trace)."""

    kind: str
    target: str
    start: float
    end: Optional[float] = None


def _replica_target(target: str) -> Optional[int]:
    if target.startswith("replica:"):
        return int(target.split(":", 1)[1])
    return None


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable list of fault windows, sorted by injection time."""

    events: Tuple[ChaosEvent, ...]

    def __post_init__(self) -> None:
        for event in self.events:
            if event.kind not in CHAOS_KINDS:
                raise ValueError(
                    f"unknown chaos kind {event.kind!r}; "
                    f"known: {', '.join(CHAOS_KINDS)}")
            check_range("event duration", event.duration, POSITIVE)
            if event.kind == "gray-failure":
                check_range("gray-failure severity (stretch factor)",
                            event.severity, AT_LEAST_ONE)
            if (event.kind != "zone-outage"
                    and _replica_target(event.target) is None):
                raise ValueError(
                    f"{event.kind} target must be 'replica:N', got {event}")
            # The valve's check: a finite time and severity.
            Window(event.time, event.time + event.duration,
                   _VALVE_EFFECT[event.kind], event.severity)
        object.__setattr__(
            self, "events", tuple(sorted(self.events)))

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        duration: float,
        replicas: int,
        zones: int = 1,
        events: int = 3,
    ) -> "ChaosSchedule":
        """Draw ``events`` correlated-fault windows for a run of about
        ``duration`` seconds over ``replicas`` replicas in ``zones``
        zones (striped ``z0..z{zones-1}``, the ReplicaSet's ``zones=N``
        convention).

        Windows open in the first 60% of the run and close within it,
        so a full-length run always exercises both the injection and
        the recovery side of every event.  Same ``(seed, arguments)``
        -> same schedule, bit for bit.
        """
        check_range("duration", duration, POSITIVE)
        check_range("replicas", replicas, AT_LEAST_ONE)
        check_range("zones", zones, AT_LEAST_ONE)
        check_range("events", events, NON_NEGATIVE)
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, CHAOS_TAG)))
        drawn: List[ChaosEvent] = []
        for _ in range(events):
            kind = CHAOS_KINDS[int(rng.integers(len(CHAOS_KINDS)))]
            start = float(rng.uniform(0.10, 0.60)) * duration
            width = float(rng.uniform(0.10, 0.25)) * duration
            severity = 0.0
            if kind == "zone-outage":
                target = f"z{int(rng.integers(zones))}"
            else:
                target = f"replica:{int(rng.integers(replicas))}"
                if kind == "gray-failure":
                    severity = float(rng.uniform(*SEVERITY_RANGE))
            drawn.append(ChaosEvent(start, width, kind, target, severity))
        return cls(events=tuple(drawn))


class _ChaosInstruments:
    """Live ``chaos_*`` metric families."""

    __slots__ = ("injections", "recoveries")

    def __init__(self, registry: MetricsRegistry, orchestrator) -> None:
        self.injections = registry.counter(
            "chaos_injections_total",
            "Fault windows opened by the chaos orchestrator",
            labels=("kind",))
        self.recoveries = registry.counter(
            "chaos_recoveries_total",
            "Fault windows closed (recovered) by the chaos orchestrator",
            labels=("kind",))
        registry.gauge(
            "chaos_active_faults",
            "Fault windows currently open",
            fn=lambda: float(orchestrator.active_faults))


class ChaosOrchestrator(Ticker):
    """Apply a :class:`ChaosSchedule` to a fleet, deterministically.

    Wiring order matters and mirrors how the pieces nest::

        orchestrator = ChaosOrchestrator(schedule, registry=registry)
        fleet = ReplicaSet(orchestrator.wrap_factory(backend_factory),
                           zones=2, ...)
        orchestrator.bind(fleet)
        run_benchmark(fleet, qsl, settings,
                      services=[orchestrator, detector, ...])

    :meth:`wrap_factory` slips a :class:`DegradedSUT` valve between each
    replica's backend and the fleet (inside any ``cache_factory``
    wrapper, so prefill delays are stretched too), and records the
    handles the per-replica scenarios open and close windows on.  Zone
    scenarios drive the fleet's own
    :meth:`~repro.fleet.replicaset.ReplicaSet.kill_zone` /
    ``restore_zone`` primitives.
    """

    #: Seconds of run time between ticks.
    period = 0.025

    def __init__(
        self,
        schedule: ChaosSchedule,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schedule = schedule
        #: replica index -> its :class:`DegradedSUT` valve (filled by
        #: the wrapped factory as the fleet builds replicas).
        self.degraded: Dict[int, DegradedSUT] = {}
        #: One :class:`ChaosDecision` per tick, holds included.
        self.trace: List[ChaosDecision] = []
        #: Fault windows as actually applied (Chrome-trace rows).
        self.windows: List[ChaosWindow] = []
        self._fleet = None
        self._m = (
            _ChaosInstruments(registry, self) if registry is not None
            else None
        )
        #: (time, event index, action, event) transitions still due.
        self._pending: List[Tuple[float, int, str, ChaosEvent]] = []
        #: event index -> its applied window and, for a per-replica
        #: kind, the valve window that applies it.
        self._open: Dict[int, Tuple[ChaosWindow, Optional[Window]]] = {}

    @property
    def active_faults(self) -> int:
        return len(self._open)

    def wrap_factory(
        self, factory: Callable[[int], SystemUnderTest],
    ) -> Callable[[int], SystemUnderTest]:
        """Wrap a replica factory so every backend gets a chaos valve.

        The wrapped factory records each valve in :attr:`degraded` and
        holds nothing else of the orchestrator: the orchestrator holds
        the fleet, and the fleet holds the factory."""
        degraded = self.degraded

        def wrapped(index: int) -> SystemUnderTest:
            valve = DegradedSUT(factory(index), name=f"chaos-valve[{index}]")
            degraded[index] = valve
            return valve

        return wrapped

    def bind(self, replica_set) -> None:
        """Attach the fleet whose zones/replicas the schedule targets."""
        self._fleet = replica_set

    # -- RunService -------------------------------------------------------------

    def start(self, loop: EventLoop,
              keep_going: Callable[[], bool]) -> None:
        if self._fleet is None:
            raise ValueError(
                "ChaosOrchestrator.bind(replica_set) must be called "
                "before the run starts")
        missing = sorted({
            _replica_target(e.target) for e in self.schedule.events
            if e.kind != "zone-outage"
            and _replica_target(e.target) not in self.degraded
        })
        if missing:
            raise ValueError(
                f"schedule targets replicas {missing} but their backends "
                "were not built through wrap_factory (no chaos valve)")
        self.trace = []
        self.windows = []
        self._open = {}
        self._pending = sorted(
            [(e.time, i, "inject", e)
             for i, e in enumerate(self.schedule.events)]
            + [(e.time + e.duration, i, "recover", e)
               for i, e in enumerate(self.schedule.events)])
        super().start(loop, keep_going)

    def stop(self) -> None:
        for window, _ in self._open.values():
            window.end = self.loop.now
        self._open = {}
        super().stop()

    def _tick(self) -> None:
        loop = self.loop
        now = loop.now
        applied = 0
        while self._pending and self._pending[0][0] <= now:
            _, index, action, event = self._pending.pop(0)
            if action == "inject":
                self._inject(index, event, now)
            else:
                self._recover(index, event, now)
            applied += 1
            self.trace.append(ChaosDecision(
                now, event.kind, event.target, action, len(self._open)))
        if not applied:
            self.trace.append(
                ChaosDecision(now, "", "", "hold", len(self._open)))
        if self.keep_going():
            self._timer = loop.schedule_after(self.period, self._tick)

    # -- scenario actuation -----------------------------------------------------

    def _inject(self, index: int, event: ChaosEvent, now: float) -> None:
        lever = None
        if event.kind == "zone-outage":
            self._fleet.kill_zone(event.target)
        else:
            lever = self.degraded[_replica_target(event.target)].open_window(
                _VALVE_EFFECT[event.kind], event.severity or 1.0)
        window = ChaosWindow(event.kind, event.target, start=now)
        self.windows.append(window)
        self._open[index] = (window, lever)
        if self._m:
            self._m.injections.labels(kind=event.kind).inc()

    def _recover(self, index: int, event: ChaosEvent, now: float) -> None:
        window, lever = self._open.pop(index)
        window.end = now
        if lever is not None:
            self.degraded[_replica_target(event.target)].close_window(lever)
        elif all(w.target != event.target for w, _ in self._open.values()):
            self._fleet.restore_zone(event.target)  # its last outage closed
        if self._m:
            self._m.recoveries.labels(kind=event.kind).inc()
