"""When the attempt engine's one deadline fires, to the float.

A clean chunk earns the live attempt ``_advanced(state)`` more seconds
of silence, counted from the chunk's own arrival: a stream that stalls
after chunk *k* expires at exactly ``t_k + timeout_k``, and nothing else
that happens in between - an absorbed chunk, a restart, however many
earlier windows - may move that instant.  The wrappers are driven on a
bare loop by a scripted backend, so every arrival time is the test's
own arithmetic; ``NetworkSUT`` gets a hand-set measured clock in place
of its sockets.
"""

import math

import pytest

from repro.core.events import Clock, EventLoop
from repro.core.query import (
    Query,
    QueryFailure,
    QuerySample,
    QuerySampleResponse,
    StreamChunk,
)
from repro.core.sut import SutBase
from repro.durability import SelfHealingSUT
from repro.faults import ResilientSUT, RetryPolicy
from repro.faults.filtering import Attempt, AttemptSUT
from repro.fleet import ReplicaSet
from repro.network.client import NetworkSUT

TIMEOUT = 0.010
#: Not a round number, so a sum taken in another order shows.
ISSUED_AT = 0.1 + 0.2
DONE = "done"


def make_query(qid=1):
    return Query(id=qid, samples=(QuerySample(id=10 * qid, index=qid),))


def responses_for(query):
    return [QuerySampleResponse(s.id, s.index) for s in query.samples]


class ScriptedStreamer(SutBase):
    """Plays one script per attempt of a query: ``(offset, seq)`` emits
    chunk ``seq`` that long after the attempt was issued, ``(offset,
    seq, True)`` marks it last, ``(offset, DONE)`` completes the query.
    A stream that stalls is a script that simply ends."""

    def __init__(self, *scripts):
        super().__init__("scripted")
        self.scripts = scripts
        self.attempts = {}

    def issue_query(self, query):
        attempt = self.attempts.get(query.id, 0)
        self.attempts[query.id] = attempt + 1
        for offset, what, *last in self.scripts[attempt]:
            arrival = (responses_for(query) if what is DONE
                       else StreamChunk(query.id, what, 1, bool(last)))
            self.loop.schedule_after(
                offset, lambda a=arrival: self._responder(query, a))


def resilient(backend, total_timeout=None, max_attempts=1):
    return ResilientSUT(backend, policy=RetryPolicy(
        max_attempts=max_attempts, attempt_timeout=TIMEOUT,
        backoff_base=0.002, jitter="none", total_timeout=total_timeout))


def healing(backend, total_timeout=None):
    return SelfHealingSUT(
        backend, attempt_timeout=TIMEOUT, total_timeout=total_timeout)


def fleet(backend):
    return ReplicaSet(lambda index: backend, initial_replicas=1,
                      attempt_timeout=TIMEOUT, max_reroutes=0)


WRAPPERS = {"resilient": resilient, "healing": healing, "fleet": fleet}
#: The two with a per-query ``total_timeout``; a replica set has none.
BUDGETED = {"resilient": resilient, "healing": healing}


def drive(sut, query=None):
    """Issue one query at :data:`ISSUED_AT` and run the loop dry; what
    the wrapper delivered, as ``(time, arrival)`` in order."""
    query = query or make_query()
    loop = EventLoop()
    heard = []
    sut.start_run(loop, lambda q, a: heard.append((loop.now, a)))
    loop.schedule(ISSUED_AT, lambda: sut.issue_query(query))
    loop.run()
    assert loop.pending() == 0
    return heard


def seqs(heard):
    return [a.seq for _, a in heard if isinstance(a, StreamChunk)]


def only_failure(heard):
    """The one terminal outcome, which must be a failure: its instant."""
    terminal = [(t, a) for t, a in heard if not isinstance(a, StreamChunk)]
    (when, outcome), = terminal
    assert isinstance(outcome, QueryFailure), outcome
    assert heard[-1] == (when, outcome)
    return when


@pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
class TestStalledStreams:
    def test_silence_from_the_start_expires_one_timeout_after_issue(
            self, wrapper):
        heard = drive(WRAPPERS[wrapper](ScriptedStreamer([])))
        assert only_failure(heard) == ISSUED_AT + TIMEOUT
        assert seqs(heard) == []

    @pytest.mark.parametrize("stalled_after", [0, 1, 4])
    def test_a_stall_after_chunk_k_expires_at_t_k_plus_timeout(
            self, wrapper, stalled_after):
        # Gaps of 0.7 timeouts: the stream outlives the window armed at
        # issue several times over before it stalls.
        offsets = [0.003 + 0.007 * seq for seq in range(stalled_after + 1)]
        script = [(offset, seq) for seq, offset in enumerate(offsets)]
        heard = drive(WRAPPERS[wrapper](ScriptedStreamer(script)))
        assert seqs(heard) == list(range(stalled_after + 1))
        assert [t for t, a in heard[:-1]] == \
            [ISSUED_AT + offset for offset in offsets]
        assert only_failure(heard) == (ISSUED_AT + offsets[-1]) + TIMEOUT

    def test_absorbed_chunks_do_not_move_the_deadline(self, wrapper):
        # Between the clean chunks: a gap (seq 5), a duplicate (seq 1
        # again), and two stragglers after the final chunk.
        script = [(0.003, 0), (0.005, 5), (0.006, 1), (0.008, 1),
                  (0.009, 2, True), (0.012, 3), (0.015, 7)]
        heard = drive(WRAPPERS[wrapper](ScriptedStreamer(script)))
        assert seqs(heard) == [0, 1, 2]
        # The last clean chunk is seq 2 at +9 ms; +12 and +15 ms say
        # nothing about the live attempt.
        assert only_failure(heard) == (ISSUED_AT + 0.009) + TIMEOUT

    def test_a_restart_at_seq_zero_is_progress_like_any_other(self, wrapper):
        # A layer below reissued: the stream starts over mid-flight.
        script = [(0.002, 0), (0.004, 1), (0.011, 0), (0.013, 1),
                  (0.019, 2)]
        heard = drive(WRAPPERS[wrapper](ScriptedStreamer(script)))
        assert seqs(heard) == [0, 1, 0, 1, 2]
        assert only_failure(heard) == (ISSUED_AT + 0.019) + TIMEOUT

    def test_gaps_just_under_the_timeout_never_expire(self, wrapper):
        gap = TIMEOUT * (1 - 1e-9)
        offsets = [gap * (seq + 1) for seq in range(12)]
        script = [(offset, seq) for seq, offset in enumerate(offsets)]
        script[-1] += (True,)
        script.append((offsets[-1] + gap, DONE))
        query = make_query()
        heard = drive(WRAPPERS[wrapper](ScriptedStreamer(script)), query)
        assert seqs(heard) == list(range(12))
        # Resolves once, cleanly, when the backend says so.
        assert heard[-1] == (ISSUED_AT + (offsets[-1] + gap),
                             responses_for(query))
        assert len(heard) == 13


@pytest.mark.parametrize("wrapper", sorted(BUDGETED))
class TestTotalTimeoutClampsTheLastWindow:
    BUDGET = 0.015

    def expiry(self, chunk_at):
        """``t_k + timeout_k`` as the wrappers' ``_timeout`` spells it."""
        elapsed = chunk_at - ISSUED_AT
        return chunk_at + max(0.0, min(TIMEOUT, self.BUDGET - elapsed))

    @pytest.mark.parametrize("offsets", [
        (0.004,),                 # budget not binding yet: a full window
        (0.004, 0.008),           # 7 ms of budget left: clamped
        (0.004, 0.008, 0.0149),   # a sliver left
    ], ids=["unclamped", "clamped", "sliver"])
    def test_expiry_is_the_chunk_time_plus_what_the_budget_allows(
            self, wrapper, offsets):
        script = [(offset, seq) for seq, offset in enumerate(offsets)]
        heard = drive(BUDGETED[wrapper](
            ScriptedStreamer(script), total_timeout=self.BUDGET))
        assert seqs(heard) == list(range(len(offsets)))
        assert only_failure(heard) == self.expiry(ISSUED_AT + offsets[-1])

    def test_chunks_cannot_carry_a_stream_past_the_budget(self, wrapper):
        offsets = [0.0035 * (seq + 1) for seq in range(8)]  # to +28 ms
        script = [(offset, seq) for seq, offset in enumerate(offsets)]
        heard = drive(BUDGETED[wrapper](
            ScriptedStreamer(script), total_timeout=self.BUDGET))
        # +3.5 .. +14 ms arrive; the window earned at +14 ms closes 1 ms
        # later, with the budget, so +17.5 ms onwards meet a resolved
        # query.
        assert seqs(heard) == [0, 1, 2, 3]
        assert only_failure(heard) == self.expiry(ISSUED_AT + 0.014)


def test_a_retry_arms_afresh_and_the_new_stream_is_metered_alone():
    """The retried attempt's deadline owes nothing to the first one's
    windows: it expires one timeout after *its* last clean chunk."""
    first = [(0.002, 0), (0.009, 1)]                # stalls at +9 ms
    second = [(0.001, 0), (0.008, 1), (0.015, 2)]   # stalls again
    heard = drive(resilient(ScriptedStreamer(first, second), max_attempts=2))
    lost = (ISSUED_AT + 0.009) + TIMEOUT
    reissued = lost + 0.002  # backoff_base, no jitter
    assert seqs(heard) == [0, 1, 0, 1, 2]
    assert [t for t, _ in heard[2:5]] == \
        [reissued + 0.001, reissued + 0.008, reissued + 0.015]
    assert only_failure(heard) == (reissued + 0.015) + TIMEOUT


class Windows(AttemptSUT):
    """The bare engine with a scripted ``_advanced``: each clean chunk
    earns the next timeout in ``earned``."""

    def __init__(self, *earned):
        super().__init__("windows")
        self.earned = list(earned)
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
        self.expired_at.append(self.loop.now)


class TestTheBareEngine:
    def test_a_shorter_window_than_the_armed_one_is_honoured(self):
        """No wrapper in the tree shortens a deadline, but the engine
        does what the policy says: the chunk's window, not the longer
        one armed before it."""
        sut = Windows(0.002)
        query = make_query()
        sut._arm(sut.admit(query), 10 * TIMEOUT)
        sut.chunk_at(0.004, query, 0)
        sut.loop.run()
        assert sut.expired_at == [0.004 + 0.002]

    def test_windows_may_shrink_and_grow_chunk_by_chunk(self):
        sut = Windows(0.050, 0.001, 0.020, 0.003)
        query = make_query()
        sut._arm(sut.admit(query), TIMEOUT)
        for seq, when in enumerate((0.004, 0.006, 0.0065, 0.020)):
            sut.chunk_at(when, query, seq)
        sut.loop.run()
        assert sut.expired_at == [0.020 + 0.003]
        assert sut.loop.pending() == 0

    def test_arming_again_forgets_what_the_chunks_earned(self):
        sut = Windows(5 * TIMEOUT)
        query = make_query()
        state = sut.admit(query)
        sut._arm(state, TIMEOUT)
        sut.chunk_at(0.004, query, 0)  # earns until +54 ms...
        sut.loop.schedule(0.006, lambda: sut._arm(state, TIMEOUT))
        sut.loop.run()
        assert sut.expired_at == [0.006 + TIMEOUT]  # ...which is void

    def test_a_chunk_with_nothing_armed_arms(self):
        """Between a lost attempt and its retry nothing is armed; a late
        clean chunk of the lost attempt starts a window of its own."""
        sut = Windows(TIMEOUT)
        query = make_query()
        sut._arm(sut.admit(query), TIMEOUT)
        sut.chunk_at(0.015, query, 0)  # after the expiry at +10 ms
        sut.loop.run()
        assert sut.expired_at == [TIMEOUT, 0.015 + TIMEOUT]

    def test_resolving_voids_every_window(self):
        sut = Windows(5 * TIMEOUT)
        query = make_query()
        state = sut.admit(query)
        sut._arm(state, TIMEOUT)
        sut.chunk_at(0.004, query, 0)
        sut.loop.schedule(0.005, lambda: sut._resolve(state))
        sut.loop.run()
        assert sut.expired_at == []
        assert sut.loop.pending() == 0


class HandSetClock(Clock):
    """A measured clock the test moves; while ``step`` is set, it also
    moves by that much on every reading (``tests/core/test_wallclock.py``'s
    ``SteppingClock``), so *which* reading a sum used shows in it."""

    def __init__(self):
        self.reading = 0.0
        self.step = 0.0

    def now(self):
        self.reading += self.step
        return self.reading


class Wire:
    """A pooled connection that accepts every frame."""

    alive = True

    def send(self, frame):
        return True

    def close(self):
        self.alive = False


class TestNetworkDeadlineOnMeasuredTime:
    QUERY_TIMEOUT = 2.0

    def setup_method(self):
        self.clock = HandSetClock()
        self.loop = EventLoop(self.clock)
        assert self.loop.realtime
        self.heard = []
        self.sut = NetworkSUT(
            "localhost:1", query_timeout=self.QUERY_TIMEOUT, max_attempts=1)
        # Everything start_run does except opening sockets.
        AttemptSUT.start_run(
            self.sut, self.loop, lambda q, a: self.heard.append(a))
        self.sut._pool = [Wire()]
        self.query = make_query()

    def run_until(self, reading):
        """Let measured time reach ``reading`` and fire what is due."""
        self.clock.reading = reading
        self.loop.run(until=reading)

    def chunk_arrives(self, seq):
        """Deliver a CHUNK frame the way the reader thread's post does,
        on a clock that moves a second per reading; the reading the
        engine took first."""
        self.clock.step = 1.0
        taken = self.clock.reading + 1.0
        self.sut._deliver(None, self.query.id, StreamChunk(self.query.id, seq))
        self.clock.step = 0.0
        return taken

    def test_a_chunk_earns_a_timeout_from_the_reading_taken_on_arrival(self):
        self.clock.reading = 100.0
        self.sut.issue_query(self.query)
        self.run_until(101.5)
        first = self.chunk_arrives(0)
        assert first == 102.5
        # The window armed at issue (102.0) is void...
        self.run_until(first + self.QUERY_TIMEOUT - 0.25)
        assert [type(a) for a in self.heard] == [StreamChunk]
        second = self.chunk_arrives(1)
        # ...and so is the first chunk's (104.5) once a second one came.
        due = second + self.QUERY_TIMEOUT
        self.run_until(math.nextafter(due, 0.0))
        assert [type(a) for a in self.heard] == [StreamChunk, StreamChunk]
        assert self.sut.stats.chunks_received == 2
        self.run_until(due)
        assert [type(a) for a in self.heard] == \
            [StreamChunk, StreamChunk, QueryFailure]
        assert self.sut.stats.gave_up_queries == 1
        assert self.loop.pending() == 0

    def test_a_stale_chunk_earns_nothing(self):
        self.clock.reading = 100.0
        self.sut.issue_query(self.query)
        self.run_until(101.0)
        self.chunk_arrives(3)  # out of sequence: absorbed
        assert self.sut.stats.filtered_chunks == 1
        self.run_until(math.nextafter(100.0 + self.QUERY_TIMEOUT, 0.0))
        assert self.heard == []
        self.run_until(100.0 + self.QUERY_TIMEOUT)
        assert [type(a) for a in self.heard] == [QueryFailure]
