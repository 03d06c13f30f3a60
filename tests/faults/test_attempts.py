"""The attempt engine: admit -> arm -> re-arm -> screen -> resolve.

``AttemptSUT`` is driven here through a subclass that only records which
hook each arrival reached, on a bare virtual-time loop - no LoadGen, so
every arrival and every instant is the test's own.
"""

import math

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import EventLoop
from repro.core.query import (
    Query,
    QueryFailure,
    QuerySample,
    QuerySampleResponse,
    StreamChunk,
)
from repro.core.sut import SutBase
from repro.durability import BreakerPolicy, SelfHealingSUT
from repro.faults import RetryPolicy
from repro.faults.filtering import Attempt, AttemptSUT
from repro.fleet import ReplicaSet
from repro.network.client import NetworkSUT
from repro.streaming import StreamModel, StreamingSUT

from tests.conftest import EchoQSL, FixedLatencySUT

TIMEOUT = 0.010


def make_query(qid=1, sample_ids=(1, 2)):
    return Query(id=qid, samples=tuple(
        QuerySample(id=s, index=s + 100) for s in sample_ids))


def responses_for(query):
    return [QuerySampleResponse(s.id, None) for s in query.samples]


def chunk(query, seq, last=False):
    return StreamChunk(query.id, seq, 1, last)


class Recorder(AttemptSUT):
    """Every hook appends what it was told; nothing resolves by itself."""

    def __init__(self):
        super().__init__("recorder")
        self.hooks = []
        self.forwarded = []
        self.start_run(EventLoop(), lambda q, a: self.forwarded.append((q, a)))

    def admit(self, query, sources=None):
        state = self._inflight[query.id] = Attempt(query, self.loop.now)
        if sources is not None:
            state.sources = sources
        return state

    def _advanced(self, state):
        self.hooks.append(("advanced", state.query.id, self.loop.now))
        return TIMEOUT

    def _expired(self, state):
        self.hooks.append(("expired", state.query.id, self.loop.now))

    def _flawed(self, state, source, reason, failure):
        self.hooks.append(("flawed", source, reason, failure))

    def _clean(self, state, source, responses):
        self.hooks.append(("clean", source, responses))

    def _absorbed(self, chunk):
        self.hooks.append(("absorbed", chunk))


class TestLifecycle:
    def test_admit_get_resolve_lifecycle(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        assert sut._inflight[query.id] is state
        assert sut._live(state)
        assert len(sut._inflight) == 1
        sut._resolve(state)
        assert not sut._live(state)
        assert query.id not in sut._inflight

    def test_inflight_snapshot_preserves_admission_order(self):
        sut = Recorder()
        states = [sut.admit(make_query(qid=i)) for i in (5, 3, 9, 1, 7)]
        assert list(sut._inflight.values()) == states

    def test_start_run_forgets_the_previous_run(self):
        sut = Recorder()
        sut.admit(make_query())
        sut.start_run(EventLoop(), lambda q, a: None)
        assert not sut._inflight

    def test_resolve_cancels_the_deadline(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        sut._resolve(state)
        sut.loop.run()
        assert sut.hooks == []


class TestTerminalArrivals:
    def test_unknown_arrival_is_stale(self):
        sut = Recorder()
        query = make_query()
        sut._deliver(None, query.id, responses_for(query))
        assert sut.hooks == [("absorbed", False)]

    def test_arrival_after_resolve_is_stale(self):
        """A duplicate completion - the whole point of the screen."""
        sut = Recorder()
        query = make_query()
        sut._resolve(sut.admit(query))
        sut._deliver(None, query.id, responses_for(query))
        sut._deliver(None, query.id, QueryFailure("late"))
        assert sut.hooks == [("absorbed", False)] * 2

    def test_clean_arrival_is_not_resolved_by_screening(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        responses = responses_for(query)
        sut._deliver(None, query.id, responses)
        assert sut.hooks == [("clean", None, responses)]
        # Screening must not resolve: the hook does that, once it has
        # dealt with its timers and stats.
        assert sut._live(state)

    def test_query_failure_carries_flaw(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        failure = QueryFailure("backend died")
        sut._deliver(None, query.id, failure)
        assert sut.hooks == [
            ("flawed", None, "attempt failed: backend died", failure)]
        assert sut._live(state)  # a flawed attempt stays in flight

    def test_malformed_set_carries_flaw(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        sut._deliver(None, query.id, responses_for(query)[:1])
        (hook, source, reason, failure), = sut.hooks
        assert hook == "flawed" and failure is None
        assert "expected 2 responses" in reason
        assert sut._live(state)

    def test_receiver_names_its_source(self):
        sut = Recorder()
        query = make_query()
        sut.admit(query, sources=("left", "right"))
        responses = responses_for(query)
        sut._receiver("right")(query, responses)
        assert sut.hooks == [("clean", "right", responses)]


class TestSources:
    def test_wrong_source_arrivals_are_absorbed(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query, sources=("live",))
        sut._deliver("dead", query.id, chunk(query, 0))
        sut._deliver("dead", query.id, responses_for(query))
        sut._deliver("dead", query.id, QueryFailure("late"))
        assert sut.hooks == [
            ("absorbed", True), ("absorbed", False), ("absorbed", False)]
        # The dead source's chunk did not touch the live stream.
        assert state.next_seq == 0 and sut.forwarded == []
        sut._deliver("live", query.id, chunk(query, 0))
        assert sut.forwarded == [(query, sut.forwarded[0][1])]

    def test_restart_switches_sources_and_forgets_progress(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query, sources=(0,))
        sut._deliver(0, query.id, chunk(query, 0))
        sut._deliver(0, query.id, chunk(query, 1, last=True))
        sut._restart(state, (1,))
        assert (state.sources, state.next_seq, state.saw_last) \
            == ((1,), 0, False)
        sut._deliver(0, query.id, chunk(query, 2))
        sut._deliver(1, query.id, chunk(query, 0))
        assert [a.seq for _, a in sut.forwarded] == [0, 1, 0]


class TestChunkSequencing:
    def forwarded_seqs(self, sut):
        return [a.seq for _, a in sut.forwarded]

    def test_in_order_chunks_are_forwarded(self):
        sut = Recorder()
        query = make_query()
        sut.admit(query)
        for seq in range(3):
            sut._deliver(None, query.id, chunk(query, seq, last=seq == 2))
        assert self.forwarded_seqs(sut) == [0, 1, 2]
        assert all(q is query for q, _ in sut.forwarded)

    def test_duplicate_chunk_is_dropped(self):
        sut = Recorder()
        query = make_query()
        sut.admit(query)
        for seq in (0, 1, 1, 2):
            sut._deliver(None, query.id, chunk(query, seq))
        assert self.forwarded_seqs(sut) == [0, 1, 2]
        assert sut.hooks.count(("absorbed", True)) == 1

    def test_gap_is_dropped_and_does_not_advance(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        sut._deliver(None, query.id, chunk(query, 0))
        sut._deliver(None, query.id, chunk(query, 2))
        assert self.forwarded_seqs(sut) == [0]
        assert state.next_seq == 1
        sut._deliver(None, query.id, chunk(query, 1))
        assert self.forwarded_seqs(sut) == [0, 1]

    def test_chunk_after_the_final_one_is_dropped(self):
        sut = Recorder()
        query = make_query()
        sut.admit(query)
        sut._deliver(None, query.id, chunk(query, 0, last=True))
        sut._deliver(None, query.id, chunk(query, 1))
        assert self.forwarded_seqs(sut) == [0]
        assert sut.hooks[-1] == ("absorbed", True)

    def test_seq_zero_after_progress_restarts_the_stream(self):
        """A layer below reissued the query: not misbehaviour."""
        sut = Recorder()
        query = make_query()
        sut.admit(query)
        for seq, last in ((0, False), (1, True), (0, False), (1, False)):
            sut._deliver(None, query.id, chunk(query, seq, last))
        assert self.forwarded_seqs(sut) == [0, 1, 0, 1]
        assert ("absorbed", True) not in sut.hooks

    def test_chunk_for_unknown_query_is_absorbed(self):
        sut = Recorder()
        sut._deliver(None, 42, StreamChunk(42, 0))
        assert sut.hooks == [("absorbed", True)] and sut.forwarded == []


class TestDeadline:
    def test_silence_expires_the_attempt_once(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        sut.loop.run()
        assert sut.hooks == [("expired", 1, TIMEOUT)]
        # Nothing is left armed: more time brings no second expiry.
        assert sut.loop.pending() == 0
        sut.loop.run(until=10 * TIMEOUT)
        assert sut.hooks == [("expired", 1, TIMEOUT)]
        assert sut._live(state)  # expiry leaves resolving to the hook

    def test_clean_chunk_rearms(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        sut._arm(state, TIMEOUT)
        sut.loop.schedule(
            0.006, lambda: sut._deliver(None, query.id, chunk(query, 0)))
        sut.loop.run()
        assert sut.hooks == [("advanced", 1, 0.006),
                             ("expired", 1, pytest.approx(0.016))]

    def test_stale_chunk_does_not_rearm(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        sut._arm(state, TIMEOUT)
        sut.loop.schedule(
            0.006, lambda: sut._deliver(None, query.id, chunk(query, 3)))
        sut.loop.run()
        assert sut.hooks == [("absorbed", True), ("expired", 1, TIMEOUT)]

    def test_rearming_replaces_the_deadline(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        sut._arm(state, 3 * TIMEOUT)
        sut.loop.run()
        assert sut.hooks == [("expired", 1, 3 * TIMEOUT)]

    def test_deadline_fire_after_resolve_is_a_noop(self):
        sut = Recorder()
        query = make_query()
        state = sut.admit(query)
        sut._arm(state, TIMEOUT)
        del sut._inflight[query.id]  # gone, whatever was armed for it
        sut.loop.run()
        assert sut.hooks == [] and sut.loop.pending() == 0

    def test_a_dead_deadline_does_not_speak_for_a_readmission(self):
        sut = Recorder()
        query = make_query()
        sut._arm(sut.admit(query), TIMEOUT)
        del sut._inflight[query.id]
        # Admitted again under the same id before that instant, with a
        # longer window: only its own deadline may expire it.
        later = sut.admit(query)
        sut._arm(later, 3 * TIMEOUT)
        sut.loop.run(until=2 * TIMEOUT)
        assert sut.hooks == [] and sut._live(later)
        sut.loop.run()
        assert sut.hooks == [("expired", 1, 3 * TIMEOUT)]
        assert sut.loop.pending() == 0


class TestOneTimer:
    """The deadline is a float on the attempt; the engine keeps one loop
    event however many attempts are armed."""

    def test_many_armed_attempts_are_one_pending_event(self):
        sut = Recorder()
        for qid in range(1, 21):
            sut._arm(sut.admit(make_query(qid)), TIMEOUT * qid)
        assert sut.loop.pending() == 1
        sut.loop.run()
        assert sut.hooks == [("expired", qid, TIMEOUT * qid)
                             for qid in range(1, 21)]
        assert sut.loop.pending() == 0

    def test_resolving_is_a_table_delete(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        sut._resolve(state)
        # Before flush a leftover tick stays (it finds nothing to do)...
        assert sut.loop.pending() == 1
        sut.loop.run()
        assert sut.hooks == [] and sut.loop.now == TIMEOUT

    def test_after_flush_an_empty_table_disarms(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        sut.flush()
        assert sut.loop.pending() == 1  # still in flight: still armed
        sut._resolve(state)
        assert sut.loop.pending() == 0
        sut.loop.run()
        assert sut.loop.now == 0.0  # ...so nothing moves the run's end
        # A straggler admitted after the hint is armed and disarmed alike.
        late = sut.admit(make_query(2))
        sut._arm(late, TIMEOUT)
        assert sut.loop.pending() == 1
        sut._resolve(late)
        assert sut.loop.pending() == 0

    def test_flush_with_nothing_in_flight_disarms_at_once(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        sut._resolve(state)
        sut.flush()
        assert sut.loop.pending() == 0

    def test_a_disarmed_attempt_is_not_expired(self):
        sut = Recorder()
        state = sut.admit(make_query())
        sut._arm(state, TIMEOUT)
        state.deadline = float("inf")  # what ResilientSUT._flawed does
        sut.loop.run()
        assert sut.hooks == [] and sut._live(state)

    def test_a_chunk_on_the_instant_chunks_pushed_the_deadline_to_is_late(
            self):
        """The one tie-order change: a pushed deadline beats an arrival
        on its instant, as an armed one always did.  (The old engine
        sequenced a pushed deadline when it moved, behind the stream's
        own events, so there the chunk won.)"""
        sut = Recorder()
        query = make_query()
        sut._arm(sut.admit(query), TIMEOUT)
        for seq, when in enumerate((0.004, 0.004 + TIMEOUT)):
            sut.loop.schedule(when, lambda seq=seq: sut._deliver(
                None, query.id, chunk(query, seq)))
        sut.loop.run(until=0.004 + TIMEOUT)
        assert sut.hooks == [
            ("advanced", 1, 0.004), ("expired", 1, 0.004 + TIMEOUT),
            # still in flight (the hook did not resolve), so it is heard
            ("advanced", 1, 0.004 + TIMEOUT)]


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
def test_timeouts_must_be_positive_and_finite(timeout):
    """A NaN passed every ``<= 0`` check; as a float-compared deadline it
    would never expire."""
    backend = FixedLatencySUT()
    with pytest.raises(ValueError, match="attempt_timeout must be positive"):
        RetryPolicy(attempt_timeout=timeout)
    with pytest.raises(ValueError, match="attempt_timeout must be positive"):
        SelfHealingSUT(backend, attempt_timeout=timeout)
    with pytest.raises(ValueError, match="attempt_timeout must be positive"):
        ReplicaSet(lambda index: backend, attempt_timeout=timeout)
    with pytest.raises(ValueError, match="query_timeout must be positive"):
        NetworkSUT("localhost:1", query_timeout=timeout)
    if math.isnan(timeout):  # a NaN budget compared false with everything
        with pytest.raises(ValueError, match="total_timeout must be >="):
            RetryPolicy(total_timeout=timeout)
        with pytest.raises(ValueError, match="total_timeout must be >="):
            SelfHealingSUT(backend, total_timeout=timeout)
        with pytest.raises(ValueError, match="hedge_delay must be in"):
            SelfHealingSUT(backend, backend, hedge_delay=timeout)


class FlawedThenClean(SutBase):
    """Answers each query twice: a malformed set, then the right one."""

    def __init__(self):
        super().__init__("flawed-then-clean")

    def issue_query(self, query):
        good = [QuerySampleResponse(s.id, s.index) for s in query.samples]
        self.loop.schedule_after(0.001, lambda: self.complete(query, []))
        self.loop.schedule_after(0.002, lambda: self.complete(query, good))


def test_healing_absorbs_a_failed_over_primarys_second_outcome():
    """One attempt, one outcome: a primary that answered flawed is out of
    the query's ``sources``, so what it sends next neither completes the
    query (cutting the standby's stream short) nor reaches the breaker."""
    model = StreamModel(first_token_delay=0.002, inter_token_delay=0.001,
                        min_tokens=4, max_tokens=4, seed=1)
    standby = StreamingSUT(FixedLatencySUT(0.003), model=model)
    sut = SelfHealingSUT(
        FlawedThenClean(), standby, attempt_timeout=0.050,
        # Never trips: every query takes the primary-then-failover path.
        policy=BreakerPolicy(window=1000, min_samples=1000))
    queries = 40
    result = run_benchmark(sut, EchoQSL(), TestSettings(
        scenario=Scenario.SERVER, server_target_qps=100.0,
        server_latency_bound=1.0, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=30.0))
    assert result.valid, result.validity.reasons
    assert sut.stats.failovers == queries
    assert sut.stats.standby_completions == queries
    assert sut.stats.filtered_completions == queries
    assert sut.breaker.stats.recorded_failures == queries
    assert sut.breaker.stats.recorded_successes == 0
    for record in result.log.completed_records():
        assert record.chunk_count == 4 and record.stream_closed
