"""What the attempt engine's deadline does, pinned ahead of its rewrite.

``AttemptSUT`` as it shipped armed one heap event per attempt.  Its
methods are kept here verbatim as the oracle (the pattern of
``tests/sut/test_simulated_contract.py``), mixed over the real
``ResilientSUT``, ``SelfHealingSUT`` and ``ReplicaSet`` so that only the
engine differs between a wrapper and its twin: every generated backend,
timeout, budget, scenario and seed must give the same run fingerprint,
the same ``*Stats`` and the same ordered trail of engine hooks
(``expired`` / ``advanced`` / ``absorbed``, each with its instant),
compared with ``==``.  The healing twin also keeps the hedge as it
shipped: a loop event of its own per hedgeable query.  Echo latencies
are drawn from the timeout itself and dyadic fractions of it, and stream
gaps sit below, at and above it, so answers land on deadline instants to
the float.

Beside the oracle sit three things a per-attempt heap event gave for
free and a cheaper engine must keep giving: an answer that lands on its
own attempt's deadline instant loses to it; a run ends when its last
query does, not when a leftover deadline would have fired; and a failing
``_expired`` hook is reported under an address-free origin.

One tie is left out of the property, in :func:`test_engine_equals_the_oracle`:
an arrival on the exact instant of a deadline that *chunks pushed there*.
The shipped engine sequenced a pushed deadline when it moved (PR 18's
documented tie-order change), which is after the stream's own events
were scheduled, so the arrival won; that order is an accident of when
the old timer happened to fire and is not part of the contract.
"""

import time
from dataclasses import asdict
from typing import Hashable, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import EventLoop, RunAbortedError
from repro.core.query import (
    Query,
    QueryFailure,
    QuerySample,
    QuerySampleResponse,
    StreamChunk,
)
from repro.core.sut import Responder, SutBase
from repro.durability import BreakerPolicy, SelfHealingSUT
from repro.durability.healing import _Guarded
from repro.durability.resume import run_fingerprint
from repro.faults import OutageSUT, ResilientSUT, RetryPolicy
from repro.faults.filtering import Attempt, AttemptSUT, malformed_reason
from repro.fleet import ReplicaSet
from repro.metrics import MetricsRegistry
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL


# -- the oracle: the parent commit's engine, verbatim -----------------------------

class _Admitted(dict):
    """The shipped ``Attempt`` declared ``timer = due = None`` at class
    level, and the shipped healing state ``hedge_timer = None``; wrappers
    admit their own state classes with a plain store, so the oracle's
    table stamps the three fields on the way in."""

    def __setitem__(self, query_id, state) -> None:
        state.timer = state.due = state.hedge_timer = None
        super().__setitem__(query_id, state)


class OracleEngine:
    """``AttemptSUT``'s machine as first shipped (one ``EventHandle`` and
    one lambda per armed deadline, cancelled on resolve), as a mixin that
    shadows the engine under a real wrapper.  The policy hooks are the
    wrapper's own."""

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self._inflight = _Admitted()

    #: The shipped engine did not listen to ``flush``.
    flush = SutBase.flush

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
            now = loop.clock.now()
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
            due = loop.clock.now() + timeout
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


class OracleResilient(OracleEngine, ResilientSUT):
    def _flawed(self, state, source, reason: str, failure) -> None:
        # ResilientSUT._flawed as shipped: the disarm is a cancel.
        self.stats.malformed_attempts += 1
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        self._expired(state)


class OracleHealing(OracleEngine, SelfHealingSUT):
    """The hedge path as first shipped: one loop event and one lambda
    per hedgeable query, cancelled on resolve, guarded when it fires."""

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
        self._arm(state, self._timeout(state))
        if (self.hedge_delay is not None and self.standby is not None
                and not state.probe):
            state.hedge_timer = self._loop.schedule_after(
                self.hedge_delay, lambda: self._hedge(state))
        self.primary.issue_query(query)

    def _resolve(self, state) -> None:
        # SelfHealingSUT._resolve, over the oracle's instead of super().
        if state.hedge_timer is not None:
            state.hedge_timer.cancel()
        OracleEngine._resolve(self, state)

    def _hedge(self, state) -> None:
        if self._live(state) and not state.hedged:
            self.stats.hedged_queries += 1
            self._ask_standby(state, ("primary", "standby"))


class OracleFleet(OracleEngine, ReplicaSet):
    pass


class Trailed:
    """Mixed in ahead of a wrapper or its twin: the engine's hooks, in
    the order they fired, each with the run time it fired at."""

    pushed_ties = 0

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        self.trail = []
        self.pushed_ties = 0
        super().start_run(loop, responder)

    def _expired(self, state) -> None:
        self.trail.append(("expired", state.query.id, self._loop.now))
        super()._expired(state)

    def _advanced(self, state) -> float:
        self.trail.append(("advanced", state.query.id, self._loop.now))
        return super()._advanced(state)

    def _absorbed(self, chunk: bool) -> None:
        self.trail.append(("absorbed", chunk, self._loop.now))
        super()._absorbed(chunk)


class OracleTrailed(Trailed):
    """The oracle side also counts the one tie the property leaves out:
    an arrival the engine would screen, on the exact instant of a
    deadline that chunks pushed there (``due``, or a timer ``_fire``
    already moved)."""

    def _arm(self, state, timeout, now=None) -> None:
        state.moved = False
        super()._arm(state, timeout, now)

    def _fire(self, state) -> None:
        before = state.timer
        super()._fire(state)
        if state.timer is not None and state.timer is not before:
            state.moved = True

    def _deliver(self, source, query_id, arrival) -> None:
        state = self._inflight.get(query_id)
        if state is not None and source in state.sources:
            now, timer = self._loop.now, state.timer
            if state.due == now or (
                    getattr(state, "moved", False) and timer is not None
                    and timer[0] == now):
                self.pushed_ties += 1
        super()._deliver(source, query_id, arrival)


def trailed(cls, oracle):
    return type(cls.__name__ + "Trailed",
                (OracleTrailed if oracle else Trailed, cls), {})


ENGINES = {
    # engine -> (shipped wrapper, its oracle-backed twin), both trailed
    "resilient": (trailed(ResilientSUT, False), trailed(OracleResilient, True)),
    "healing": (trailed(SelfHealingSUT, False), trailed(OracleHealing, True)),
    "fleet": (trailed(ReplicaSet, False), trailed(OracleFleet, True)),
}

#: Never trips inside a generated run: the deadline, not the breaker, is
#: what these runs exercise.
QUIET_BREAKER = BreakerPolicy(window=1000, min_samples=1000)


def build(engine, oracle, backend, timeout, total, hedged, seed):
    """One wrapper (or its twin) over fresh backends from ``backend()``."""
    cls = ENGINES[engine][oracle]
    if engine == "resilient":
        return cls(backend(), RetryPolicy(
            max_attempts=3, attempt_timeout=timeout, backoff_base=0.001,
            jitter="full" if seed % 2 else "none", total_timeout=total),
            seed=seed)
    if engine == "healing":
        return cls(backend(), backend(), policy=QUIET_BREAKER,
                   attempt_timeout=timeout, total_timeout=total,
                   hedge_delay=timeout / 2 if hedged else None)
    return cls(lambda index: backend(), initial_replicas=2,
               breaker_policy=QUIET_BREAKER, attempt_timeout=timeout,
               max_reroutes=2, seed=seed)


def backend_factory(kind, timeout, fraction, tokens):
    """``fraction`` (of the timeout) is the echo's latency, or the gap
    between a stream's chunks."""
    if kind == "echo":
        return lambda: EchoSUT(latency=timeout * fraction)
    if kind == "outage":
        # Nothing in, nothing out for three timeouts, from one timeout in.
        return lambda: OutageSUT(EchoSUT(latency=timeout * fraction),
                                 outage_start=timeout,
                                 outage_duration=3 * timeout)
    model = StreamModel(
        first_token_delay=timeout / 4, inter_token_delay=timeout * fraction,
        min_tokens=tokens, max_tokens=tokens, seed=1)
    return lambda: StreamingSUT(EchoSUT(latency=timeout / 8), model=model)


def run_settings(scenario, timeout, seed, watchdog=None):
    common = dict(min_duration=0.0, seed=seed, watchdog_timeout=watchdog)
    if scenario is Scenario.SERVER:
        # About three arrivals per timeout: deadlines overlap.
        return TestSettings(
            scenario=scenario, server_target_qps=3.0 / timeout,
            server_latency_bound=100.0, min_query_count=12, **common)
    if scenario is Scenario.SINGLE_STREAM:
        return TestSettings(scenario=scenario, min_query_count=8, **common)
    return TestSettings(scenario=scenario, offline_sample_count=6, **common)


def observed(sut, result):
    stats = asdict(sut.stats)
    if isinstance(sut, SelfHealingSUT):
        stats["breaker"] = asdict(sut.breaker.stats)
    return run_fingerprint(result), stats, sut.trail


@given(
    engine=st.sampled_from(sorted(ENGINES)),
    kind=st.sampled_from(["echo", "outage", "stream"]),
    timeout=st.sampled_from([0.25, 0.0625, 0.01]),
    fraction=st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]),
    tokens=st.integers(1, 5),
    budget=st.sampled_from([None, 1.0, 2.5]),
    hedged=st.booleans(),
    scenario=st.sampled_from(
        [Scenario.SERVER, Scenario.SINGLE_STREAM, Scenario.OFFLINE]),
    seed=st.integers(0, 2 ** 16),
)
@settings(max_examples=150, deadline=None)
def test_engine_equals_the_oracle(engine, kind, timeout, fraction, tokens,
                                  budget, hedged, scenario, seed):
    backend = backend_factory(kind, timeout, fraction, tokens)
    total = None if budget is None else budget * timeout
    run = run_settings(scenario, timeout, seed)
    twin = build(engine, True, backend, timeout, total, hedged, seed)
    expected = observed(twin, run_benchmark(twin, EchoQSL(), run))
    if twin.pushed_ties:
        return  # the one tie left out; see the module docstring
    sut = build(engine, False, backend, timeout, total, hedged, seed)
    assert observed(sut, run_benchmark(sut, EchoQSL(), run)) == expected


def test_the_property_reaches_the_ties_it_is_about():
    """The generated space is not vacuous: a latency equal to the timeout
    does land every answer on its deadline, and a stream gap equal to
    the timeout does produce the pushed tie that is left out."""
    timeout = 0.25
    run = run_settings(Scenario.SERVER, timeout, seed=3)
    twin = build("resilient", True,
                 backend_factory("echo", timeout, 1.0, 1),
                 timeout, None, False, seed=2)
    run_benchmark(twin, EchoQSL(), run)
    assert twin.stats.retries == twin.stats.recovered_queries == 12
    assert twin.pushed_ties == 0
    twin = build("resilient", True,
                 backend_factory("stream", timeout, 1.0, 3),
                 timeout, None, False, seed=2)
    run_benchmark(twin, EchoQSL(), run_settings(Scenario.OFFLINE, timeout, 3))
    assert twin.pushed_ties > 0


# -- the tie at the deadline instant ----------------------------------------------

def server(qps, queries, seed=0, watchdog=None):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=10.0, min_query_count=queries,
        min_duration=0.0, seed=seed, watchdog_timeout=watchdog)


def test_an_answer_on_its_own_deadline_instant_loses_to_the_deadline():
    """The deadline is armed before the inner SUT is issued to, so an
    answer exactly ``attempt_timeout`` later finds the attempt already
    lost: every query is retried once, then recovered by that answer."""
    sut = ResilientSUT(EchoSUT(latency=0.25), RetryPolicy(
        attempt_timeout=0.25, max_attempts=2, backoff_base=0.001,
        jitter="none"))
    result = run_benchmark(sut, EchoQSL(), server(10.0, 6))
    assert result.log.query_count == 6
    assert (sut.stats.retries, sut.stats.recovered_queries) == (6, 6)
    assert sut.stats.gave_up_queries == 0


def test_the_same_tie_in_the_other_two_engines():
    healing = SelfHealingSUT(EchoSUT(latency=0.25), attempt_timeout=0.25,
                             policy=QUIET_BREAKER)
    run_benchmark(healing, EchoQSL(), server(10.0, 6))
    assert healing.stats.deadline_failures == 6
    assert healing.stats.filtered_completions == 6  # each answer: too late
    fleet = ReplicaSet(lambda index: EchoSUT(latency=0.25),
                       initial_replicas=2, attempt_timeout=0.25,
                       max_reroutes=1, breaker_policy=QUIET_BREAKER)
    run_benchmark(fleet, EchoQSL(), server(10.0, 6))
    # Rerouted at the deadline; the first replica's answer is then a
    # straggler, and the second attempt ties with its deadline too.
    assert fleet.stats.deadline_failures == 12
    assert fleet.stats.reroutes == 6 and fleet.stats.shed_queries == 6
    assert fleet.stats.stragglers_absorbed == 12


# -- the terminal time -------------------------------------------------------------

def healthy(engine, registry):
    if engine == "resilient":
        return ResilientSUT(EchoSUT(latency=0.001),
                            RetryPolicy(attempt_timeout=0.5),
                            registry=registry)
    if engine == "healing":
        return SelfHealingSUT(EchoSUT(latency=0.001), attempt_timeout=0.5,
                              registry=registry)
    return ReplicaSet(lambda index: EchoSUT(latency=0.001),
                      initial_replicas=2, attempt_timeout=0.5,
                      registry=registry)


class LoopAtStop:
    """A run service that notes where the loop stood once the run
    stopped: its clock and the events still due.  (The stack itself
    lets go of the loop when the run ends.)"""

    def start(self, loop, keep_going):
        self.loop = loop

    def stop(self):
        self.now, self.pending = self.loop.now, self.loop.pending()


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("watchdog, ends_at", [
    (None, 0.5499999999999999), (30.0, 30.0)])
def test_a_healthy_run_ends_when_its_last_query_does(
        engine, watchdog, ends_at):
    """50 queries at 100 qps answered in 1 ms, deadlines of 0.5 s that
    never fire.  Without a watchdog the loop runs dry at the sampler's
    first tick after the last completion; a deadline left ticking would
    carry the clock, and the final snapshot, to about one second."""
    registry = MetricsRegistry()
    sut, probe = healthy(engine, registry), LoopAtStop()
    result = run_benchmark(
        sut, EchoQSL(), server(100.0, 50, seed=1, watchdog=watchdog),
        registry=registry, snapshot_period=0.05, services=[probe])
    assert result.valid and result.log.query_count == 50
    assert result.snapshots[-1].time == ends_at
    assert probe.now == ends_at
    assert probe.pending == 0


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_closed_loop_run_ends_when_its_last_query_does(engine):
    """SingleStream: one attempt in flight, the table empty after every
    completion - and still nothing outlives the last one."""
    sut, probe = healthy(engine, None), LoopAtStop()
    result = run_benchmark(sut, EchoQSL(), TestSettings(
        scenario=Scenario.SINGLE_STREAM, min_query_count=40,
        min_duration=0.0, seed=1), services=[probe])
    assert result.valid and result.log.query_count == 40
    last = max(r.completion_time for r in result.log.completed_records())
    assert probe.now == last
    assert probe.pending == 0


# -- the engine on a bare loop ------------------------------------------------------

TIMEOUT = 0.010


def make_query(qid=1):
    return Query(id=qid, samples=(QuerySample(id=10 * qid, index=qid),))


class Bare(AttemptSUT):
    """The engine with scripted windows: each clean chunk earns the next
    timeout in ``earned``; expiries are recorded with their instants."""

    def __init__(self, *earned, fail=False):
        super().__init__("bare")
        self.earned = list(earned)
        self.fail = fail
        self.expired_at = []
        self.start_run(EventLoop(), lambda q, a: None)

    def admit(self, query):
        state = self._inflight[query.id] = Attempt(query, self.loop.now)
        return state

    def chunk_at(self, when, query, seq):
        self.loop.schedule(when, lambda: self._deliver(
            None, query.id, StreamChunk(query.id, seq)))

    def _advanced(self, state):
        return self.earned.pop(0)

    def _expired(self, state):
        if self.fail:
            raise KeyError("policy bug")
        self.expired_at.append((state.query.id, self.loop.now))


def test_a_failing_expiry_hook_is_reported_without_addresses():
    sut = Bare(fail=True)
    sut._arm(sut.admit(make_query()), TIMEOUT)
    with pytest.raises(RunAbortedError) as abort:
        sut.loop.run()
    assert abort.value.time == TIMEOUT
    assert "0x" not in abort.value.origin
    assert "0x" not in str(abort.value)
    assert isinstance(abort.value.cause, KeyError)


def test_armed_then_pushed_then_shortened_fires_at_the_shortened_instant():
    sut = Bare(0.030, 0.030, 0.002)
    query = make_query()
    sut._arm(sut.admit(query), TIMEOUT)
    sut.chunk_at(0.004, query, 0)   # pushed to 0.034
    sut.chunk_at(0.012, query, 1)   # pushed to 0.042, past the first timer
    sut.chunk_at(0.020, query, 2)   # shortened to 0.022
    sut.loop.run()
    assert sut.expired_at == [(1, 0.020 + 0.002)]
    assert sut.loop.pending() == 0


def test_deadlines_armed_at_one_instant_expire_in_arm_order():
    sut = Bare()
    first, second, third = (sut.admit(make_query(qid)) for qid in (1, 2, 3))
    # Armed in another order than admitted, all for the same instant.
    sut._arm(third, TIMEOUT)
    sut._arm(first, TIMEOUT)
    sut._arm(second, TIMEOUT)
    sut.loop.run()
    assert sut.expired_at == [(3, TIMEOUT), (1, TIMEOUT), (2, TIMEOUT)]


def test_an_earlier_deadline_armed_later_fires_first():
    sut = Bare()
    slow, quick = sut.admit(make_query(1)), sut.admit(make_query(2))
    sut._arm(slow, 5 * TIMEOUT)
    sut.loop.schedule(0.001, lambda: sut._arm(quick, TIMEOUT))
    sut.loop.run()
    assert sut.expired_at == [(2, 0.001 + TIMEOUT), (1, 5 * TIMEOUT)]


# -- the pathology: many stranded attempts, all with distinct deadlines -----------

STRANDED = 500


class Strander(SutBase):
    """Answers in 1 ms, except that the :data:`STRANDED` queries after
    the first 250 are never answered (a blackhole window by count)."""

    def __init__(self):
        super().__init__("strander")
        self.seen = 0

    def issue_query(self, query):
        self.seen += 1
        if not 250 < self.seen <= 250 + STRANDED:
            responses = [QuerySampleResponse(s.id, s.index)
                         for s in query.samples]
            self.loop.schedule_after(
                0.001, lambda: self.complete(query, responses))


def stranded_run(cls):
    """1,000 queries at 1,000 qps, one attempt each, 2 s deadlines: the
    stranded half is all in flight together when the first one expires.
    Returns (host seconds, the wrapper, the result)."""
    sut = cls(Strander(), RetryPolicy(max_attempts=1, attempt_timeout=2.0))
    started = time.perf_counter()
    result = run_benchmark(sut, EchoQSL(), server(1000.0, 1000, seed=4))
    return time.perf_counter() - started, sut, result


def test_stranded_attempts_expire_at_their_own_instants_at_the_oracles_cost():
    shipped, twin = ENGINES["resilient"]
    oracle_s, oracle, expected = stranded_run(twin)
    host_s, sut, result = stranded_run(shipped)
    failed = [r for r in result.log.records() if r.failure_time is not None]
    assert len(failed) == STRANDED
    assert len({r.issue_time for r in failed}) == STRANDED
    # Each at its own instant, to the float, and in that order.
    assert sut.trail == [("expired", r.query.id, r.issue_time + 2.0)
                         for r in failed]
    assert [r.failure_time for r in failed] == [t for _, _, t in sut.trail]
    assert (sut.trail, run_fingerprint(result)) \
        == (oracle.trail, run_fingerprint(expected))
    # One tick per reached deadline, each a walk of what is in flight:
    # fine at this size, and where a quadratic blow-up would show first.
    best = min([host_s] + [stranded_run(shipped)[0] for _ in range(2)])
    assert best <= 3 * oracle_s, (best, oracle_s)
