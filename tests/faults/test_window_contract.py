"""What the fault valves do, pinned ahead of their merge into one.

``OutageSUT`` (a fixed window that refuses issues and drops deliveries)
and ``DegradedSUT`` (a hand-flipped valve that stretches or drops
deliveries) as they shipped are kept here verbatim as the oracle (the
pattern of ``tests/sut/test_simulated_contract.py``).  Every generated
backend (plain, streamed or failing echo), scenario and seed, under
either one outage window - its edges drawn from the exact instants the
bare backend delivers on - or a program of ``degrade`` / ``partition`` /
``restore`` flips at generated instants, must give the same delivered
trail (instant, query id, chunk seq or terminal kind), the same
``slowed`` / ``blackholed`` counts and the same run fingerprint,
compared with ``==``.

Beside it sit literal trails of a zoned 4-replica fleet under three
generated chaos schedules that have no two windows on one target at
once: the orchestrator's decisions, its windows and the run fingerprint.
"""

import hashlib
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import EventLoop
from repro.core.query import Query, StreamChunk
from repro.core.sut import Responder, SutBase, SystemUnderTest
from repro.durability.resume import run_fingerprint
from repro.faults import (
    ChaosOrchestrator,
    ChaosSchedule,
    DegradedSUT,
    OutageSUT,
)
from repro.fleet import ReplicaSet
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL


# -- the oracle: the parent commit's valves, verbatim ----------------------------

class OracleOutageSUT(SutBase):
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


class OracleDegradedSUT(SutBase):
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
        self._issued_at[query.id] = loop.clock.now()
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
            now = loop.clock.now()
            extra = (self._factor - 1.0) * (now - since)
            if extra > 0:
                self.slowed += 1
                loop.schedule_after(
                    extra, lambda: self.complete(query, responses))
                return
        self._responder(query, responses)


# -- generated runs: the shipped valves against today's ---------------------------

LATENCY = 0.002
MODEL = StreamModel(first_token_delay=0.001, inter_token_delay=0.0005,
                    min_tokens=2, max_tokens=5, seed=3)


class FailingEcho(EchoSUT):
    """An echo that reports every third query as failed."""

    def complete(self, query, responses):
        if query.id % 3 == 0:
            self.fail(query, "boom")
        else:
            super().complete(query, responses)


BACKENDS = {
    "plain": lambda: EchoSUT(latency=LATENCY),
    "streamed": lambda: StreamingSUT(EchoSUT(latency=LATENCY), model=MODEL),
    "failing": lambda: FailingEcho(latency=LATENCY),
}

SCENARIOS = {
    "server": dict(scenario=Scenario.SERVER, server_target_qps=300.0,
                   server_latency_bound=0.5, min_query_count=40),
    "single-stream": dict(scenario=Scenario.SINGLE_STREAM,
                          min_query_count=40),
    "offline": dict(scenario=Scenario.OFFLINE, offline_sample_count=48),
}


def run_settings(scenario, seed):
    return TestSettings(min_duration=0.0, watchdog_timeout=1.0, seed=seed,
                        **SCENARIOS[scenario])


class Trail(SutBase):
    """Notes every delivery that comes up through the valve below it."""

    def __init__(self, inner):
        super().__init__("trail")
        self.inner = inner
        self.inners = (inner,)
        self.seen = []

    def start_run(self, loop, responder):
        super().start_run(loop, responder)
        self.seen = []
        self.inner.start_run(loop, self._see)

    def issue_query(self, query):
        self.inner.issue_query(query)

    def _see(self, query, responses):
        what = (responses.seq if isinstance(responses, StreamChunk)
                else type(responses).__name__)
        self.seen.append((self._loop.now, query.id, what))
        self._responder(query, responses)


class Flips:
    """A run service that flips a valve at the program's instants."""

    def __init__(self, valve, program):
        self.valve, self.program = valve, program

    def start(self, loop, keep_going):
        for at, verb, factor in self.program:
            if verb == "degrade":
                loop.schedule(at, lambda k=factor: self.valve.degrade(k))
            else:
                loop.schedule(at, getattr(self.valve, verb))

    def stop(self):
        pass


BARE: Dict[tuple, tuple] = {}


def bare_instants(backend, scenario, seed):
    """The instants the bare backend delivers on, in order."""
    key = (backend, scenario, seed)
    if key not in BARE:
        trail = Trail(BACKENDS[backend]())
        run_benchmark(trail, EchoQSL(), run_settings(scenario, seed))
        BARE[key] = tuple(sorted({t for t, _, _ in trail.seen}))
    return BARE[key]


def observed(valve, case):
    """(trail, counters, fingerprint) of one run through ``valve``."""
    backend, scenario, seed, program = case
    trail = Trail(valve)
    services = [] if program is None else [Flips(valve, program)]
    result = run_benchmark(trail, EchoQSL(), run_settings(scenario, seed),
                           services=services)
    # The shipped OutageSUT had no stretch and so no ``slowed``.
    return (trail.seen, (getattr(valve, "slowed", 0), valve.blackholed),
            run_fingerprint(result))


FACTORS = (1.0, 1.5, 3.0, 10.0)
#: Degrade twice as often as the others: a stretch needs a degrade
#: that no later partition or restore hides.
VERBS = ("degrade", "degrade", "partition", "restore")


@st.composite
def cases(draw):
    backend = draw(st.sampled_from(sorted(BACKENDS)))
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    seed = draw(st.integers(0, 3))
    instants = bare_instants(backend, scenario, seed)
    instant = st.one_of(st.sampled_from(instants),
                        st.floats(0.0, instants[-1] + LATENCY))
    if draw(st.booleans()):
        start, end = sorted((draw(instant), draw(instant)))
        duration = draw(st.one_of(st.just(end - start),
                                  st.just(float("inf"))))
        return backend, scenario, seed, None, (start, duration)
    program = draw(st.lists(
        st.tuples(instant, st.sampled_from(VERBS), st.sampled_from(FACTORS)),
        min_size=1, max_size=6))
    return backend, scenario, seed, program, None


def build(case, outage, degraded):
    backend, scenario, seed, program, window = case
    inner = BACKENDS[backend]()
    if window is not None:
        return outage(inner, *window)
    return degraded(inner)


@given(case=cases())
@settings(max_examples=200, deadline=None)
def test_valves_equal_the_shipped_valves(case):
    backend, scenario, seed, program, _ = case
    run = (backend, scenario, seed, program)
    oracle = observed(build(case, OracleOutageSUT, OracleDegradedSUT), run)
    today = observed(build(case, OutageSUT, DegradedSUT), run)
    assert today == oracle


def test_an_outage_edge_on_a_delivery_instant_is_exercised():
    """Half-open windows: a delivery on the start instant is dropped, one
    on the end instant goes through - for the oracle and for today."""
    instants = bare_instants("plain", "single-stream", 0)
    start, end = instants[3], instants[6]
    for outage in (OracleOutageSUT, OutageSUT):
        valve = outage(EchoSUT(latency=LATENCY), start, end - start)
        trail, (_, blackholed), _ = observed(
            valve, ("plain", "single-stream", 0, None))
        assert [t for t, _, _ in trail] == list(instants[:3])
        assert blackholed == 1


# -- a zoned fleet under generated chaos ------------------------------------------

CHAOS_RUN = 2.0


def chaos_settings(seed):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=200.0,
        server_latency_bound=0.2, min_query_count=400,
        min_duration=0.0, watchdog_timeout=60.0, seed=seed)


def same_target_overlap(schedule):
    """Two windows on one target at once?"""
    events = schedule.events
    return any(
        a.target == b.target
        and a.time < b.time + b.duration and b.time < a.time + a.duration
        for i, a in enumerate(events) for b in events[i + 1:])


def chaos_run(seed):
    schedule = ChaosSchedule.generate(
        seed, duration=CHAOS_RUN, replicas=4, zones=2)
    orchestrator = ChaosOrchestrator(schedule)
    fleet = ReplicaSet(
        orchestrator.wrap_factory(lambda i: EchoSUT(latency=LATENCY)),
        initial_replicas=4, zones=2, policy="zone-spread", seed=seed)
    orchestrator.bind(fleet)
    result = run_benchmark(fleet, EchoQSL(), chaos_settings(seed),
                           services=[orchestrator])
    return schedule, orchestrator, result


def digest(material):
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16]


#: seed -> (non-hold decisions, windows, each valve's (slowed,
#: blackholed), digest of the whole trace, digest of the run
#: fingerprint), recorded before the valves merged.  Seed 0 has a gray
#: failure and two zone outages, seed 1 all three kinds overlapping on
#: different targets, seed 2 two partitions of one replica back to back.
CHAOS_PINNED = {
    0: (
        [(0.24999999999999997, 'gray-failure', 'replica:1', 'inject', 1),
         (0.5000000000000001, 'gray-failure', 'replica:1', 'recover', 0),
         (0.6750000000000003, 'zone-outage', 'z0', 'inject', 1),
         (0.9250000000000005, 'zone-outage', 'z0', 'recover', 0),
         (1.1, 'zone-outage', 'z1', 'inject', 1),
         (1.5249999999999986, 'zone-outage', 'z1', 'recover', 0)],
        [('gray-failure', 'replica:1', 0.24999999999999997,
          0.5000000000000001),
         ('zone-outage', 'z0', 0.6750000000000003, 0.9250000000000005),
         ('zone-outage', 'z1', 1.1, 1.5249999999999986)],
        [(0, 0), (8, 0), (0, 0), (0, 0)],
        'd26644556c7154ec', 'aacb000d40a0b35f'),
    1: (
        [(0.5750000000000002, 'gray-failure', 'replica:1', 'inject', 1),
         (0.8500000000000004, 'partition', 'replica:0', 'inject', 2),
         (0.8750000000000004, 'zone-outage', 'z0', 'inject', 3),
         (0.9000000000000005, 'gray-failure', 'replica:1', 'recover', 2),
         (1.1749999999999998, 'zone-outage', 'z0', 'recover', 1),
         (1.2249999999999996, 'partition', 'replica:0', 'recover', 0)],
        [('gray-failure', 'replica:1', 0.5750000000000002,
          0.9000000000000005),
         ('partition', 'replica:0', 0.8500000000000004, 1.2249999999999996),
         ('zone-outage', 'z0', 0.8750000000000004, 1.1749999999999998)],
        [(0, 2), (11, 0), (0, 0), (0, 0)],
        '4478e4ae2aeee626', '6abff70247b0ede0'),
    2: (
        [(0.3, 'partition', 'replica:1', 'inject', 1),
         (0.5000000000000001, 'partition', 'replica:2', 'inject', 2),
         (0.6000000000000002, 'partition', 'replica:1', 'recover', 1),
         (0.8750000000000004, 'partition', 'replica:2', 'recover', 0),
         (0.9250000000000005, 'partition', 'replica:2', 'inject', 1),
         (1.1999999999999997, 'partition', 'replica:2', 'recover', 0)],
        [('partition', 'replica:1', 0.3, 0.6000000000000002),
         ('partition', 'replica:2', 0.5000000000000001, 0.8750000000000004),
         ('partition', 'replica:2', 0.9250000000000005,
          1.1999999999999997)],
        [(0, 0), (0, 5), (0, 4), (0, 0)],
        'e31624687f33cbcc', '5058794bc7323e18'),
}


@pytest.mark.parametrize("seed", sorted(CHAOS_PINNED))
def test_chaos_trail_is_pinned(seed):
    schedule, orchestrator, result = chaos_run(seed)
    assert not same_target_overlap(schedule)
    applied = [tuple(d) for d in orchestrator.trace if d.action != "hold"]
    windows = [(w.kind, w.target, w.start, w.end)
               for w in orchestrator.windows]
    valves = [(valve.slowed, valve.blackholed)
              for _, valve in sorted(orchestrator.degraded.items())]
    assert (applied, windows, valves, digest(orchestrator.trace),
            digest(run_fingerprint(result))) == CHAOS_PINNED[seed]
