"""WallClock and the measured-time (realtime) run path.

The virtual-time loop is pinned down in ``test_events.py``; these tests
cover what realtime mode adds: monotonic reads, interruptible sleeping,
cross-thread ``post``, past-time clamping, and - most importantly - that
a LoadGen run over a ``WallClock`` produces the *same* traffic and
verdict as the identical run over a ``VirtualClock``.
"""

import threading
import time

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import Clock, EventLoop, VirtualClock, WallClock
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.faults import ResilientSUT, RetryPolicy


class TestWallClock:
    def test_monotonic_nondecreasing(self):
        clock = WallClock()
        readings = [clock.now() for _ in range(200)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

    def test_now_is_a_float_that_never_decreases(self):
        clock = WallClock()
        readings = [clock.now() for _ in range(1000)]
        assert {type(reading) for reading in readings} == {float}
        assert readings == sorted(readings)

    def test_now_reads_the_monotonic_clock(self):
        before = time.monotonic()
        reading = WallClock().now()
        assert before <= reading <= time.monotonic()
        loop = EventLoop(WallClock())
        before = time.monotonic()
        reading = loop.now
        assert before <= reading <= time.monotonic()

    def test_the_base_clock_still_has_no_time(self):
        class Bare(Clock):
            pass

        for clock in (Clock(), Bare()):
            with pytest.raises(NotImplementedError):
                clock.now()

    def test_a_subclass_still_chooses_its_own_now(self):
        class Fixed(WallClock):
            def now(self):
                return 42.0

        class Inherited(WallClock):
            pass

        assert Fixed().now() == 42.0
        assert EventLoop(Fixed()).realtime and EventLoop(Fixed()).now == 42.0
        before = time.monotonic()
        reading = Inherited().now()
        assert before <= reading <= time.monotonic()
        assert SteppingClock().now() == 1.0

    def test_tracks_real_elapsed_time(self):
        clock = WallClock()
        start = clock.now()
        time.sleep(0.02)
        assert clock.now() - start >= 0.015

    def test_loop_over_wall_clock_is_realtime(self):
        assert EventLoop(WallClock()).realtime is True
        assert EventLoop(VirtualClock()).realtime is False
        assert EventLoop().realtime is False


class TestRealtimeLoop:
    def test_events_fire_in_order_at_real_times(self):
        loop = EventLoop(WallClock())
        fired = []
        start = loop.now
        loop.schedule_after(0.010, lambda: fired.append(("b", loop.now)))
        loop.schedule_after(0.001, lambda: fired.append(("a", loop.now)))
        loop.run()
        assert [name for name, _ in fired] == ["a", "b"]
        assert fired[1][1] - start >= 0.009

    def test_past_schedule_is_clamped_not_an_error(self):
        loop = EventLoop(WallClock())
        fired = []
        # A timestamp computed "before now" is routine under measured
        # time; the virtual loop's ValueError would be wrong here.
        loop.schedule(loop.now - 5.0, lambda: fired.append(loop.now))
        loop.run()
        assert len(fired) == 1

    def test_virtual_loop_still_rejects_past_times(self):
        loop = EventLoop(VirtualClock())
        loop.clock.advance_to(10.0)
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda: None)

    def test_post_from_another_thread_wakes_the_sleep(self):
        loop = EventLoop(WallClock())
        fired = []
        # Keep the loop asleep on a far-future event; the posted
        # callback must interrupt that sleep, not wait it out.
        guard = loop.schedule_after(30.0, lambda: fired.append("guard"))

        def poster():
            time.sleep(0.02)
            loop.post(lambda: (fired.append("posted"), guard.cancel(),
                               loop.stop()))

        thread = threading.Thread(target=poster)
        thread.start()
        start = time.monotonic()
        loop.run()
        thread.join()
        assert fired == ["posted"]
        assert time.monotonic() - start < 5.0

    def test_posted_callbacks_run_in_order_before_heap_events(self):
        loop = EventLoop(VirtualClock())
        order = []
        loop.schedule(0.0, lambda: order.append("heap"))
        loop.post(lambda: order.append("post-1"))
        loop.post(lambda: order.append("post-2"))
        loop.run()
        assert order == ["post-1", "post-2", "heap"]


class FixedLatencyWallSUT:
    """Local copy of the conftest SUT: fine under either clock."""

    def __init__(self, latency):
        from repro.core.query import QuerySampleResponse

        self.latency = latency
        self.name = "fixed-wall"
        self._make_response = QuerySampleResponse

    def start_run(self, loop, responder):
        self.loop = loop
        self.responder = responder

    def issue_query(self, query):
        responses = [
            self._make_response(s.id, s.index) for s in query.samples
        ]
        self.loop.schedule_after(
            self.latency, lambda: self.responder(query, responses))

    def flush(self):
        pass


def parity_settings():
    return TestSettings(
        scenario=Scenario.SERVER,
        server_target_qps=200.0,
        server_latency_bound=0.05,
        min_query_count=20,
        min_duration=0.0,
        watchdog_timeout=20.0,
    )


class TestMeasuredRunPath:
    def test_wall_clock_run_completes_valid(self, echo_qsl):
        result = run_benchmark(
            FixedLatencyWallSUT(0.002), echo_qsl, parity_settings(),
            clock=WallClock())
        assert result.valid, result.validity.reasons
        assert result.metrics.query_count >= 20
        # Latencies are measured, so they sit at-or-above the service
        # time rather than exactly on it.
        assert result.metrics.latency_mean >= 0.002

    def test_wall_and_virtual_issue_identical_traffic(self, echo_qsl):
        """Same seed, same scenario: the measured run must draw the same
        queries in the same order as the deterministic one - the clock
        changes *when*, never *what*."""
        settings = parity_settings()
        virtual = run_benchmark(
            FixedLatencyWallSUT(0.002), echo_qsl, settings)
        wall = run_benchmark(
            FixedLatencyWallSUT(0.002), echo_qsl, settings,
            clock=WallClock())
        assert virtual.valid and wall.valid
        v_seq = [r.query.sample_indices
                 for r in virtual.log.completed_records()]
        w_seq = [r.query.sample_indices
                 for r in wall.log.completed_records()]
        assert v_seq[:20] == w_seq[:20]
        assert virtual.metrics.query_count == wall.metrics.query_count

    def test_wall_run_timestamps_are_monotonic(self, echo_qsl):
        result = run_benchmark(
            FixedLatencyWallSUT(0.001), echo_qsl, parity_settings(),
            clock=WallClock())
        records = result.log.completed_records()
        issues = [r.issue_time for r in records]
        assert all(b >= a for a, b in zip(issues, issues[1:]))
        assert all(r.completion_time >= r.issue_time for r in records)

    def test_watchdog_still_ends_a_stuck_wall_run(self, echo_qsl):
        class BlackHoleSUT:
            name = "black-hole"

            def start_run(self, loop, responder):
                pass

            def issue_query(self, query):
                pass  # never completes

            def flush(self):
                pass

        settings = TestSettings(
            scenario=Scenario.SERVER,
            server_target_qps=500.0,
            min_query_count=5,
            min_duration=0.0,
            watchdog_timeout=0.5,
        )
        start = time.monotonic()
        result = run_benchmark(BlackHoleSUT(), echo_qsl, settings,
                               clock=WallClock())
        elapsed = time.monotonic() - start
        assert not result.valid
        assert result.stats.watchdog_fired
        assert 0.4 <= elapsed < 5.0


class SteppingClock(Clock):
    """A measured clock that moves one second on every reading."""

    def __init__(self):
        self.reading = 0.0

    def now(self):
        self.reading += 1.0
        return self.reading


class HeldSUT:
    """Holds each query until the test completes it by hand."""

    name = "held"

    def __init__(self):
        self.queries = []

    def issue_query(self, query):
        self.queries.append(query)

    def flush(self):
        pass


class TestCompletionDecidesOnAFreshReading:
    """Under a realtime loop the clock moves while a completion is being
    logged; whether to issue more is judged on a reading taken after
    that, not on the one the completion was stamped with."""

    @pytest.mark.parametrize("scenario", [Scenario.SINGLE_STREAM,
                                          Scenario.OFFLINE])
    def test_min_duration_sees_time_spent_logging(self, scenario):
        from repro.core.logging import QueryLog
        from repro.core.query import QuerySampleResponse
        from repro.core.sampler import SampleSelector
        from repro.core.scenarios import PerformanceSource, make_driver

        # Readings: start 1, then single-stream issues at 2; offline
        # issues two batches, each reading once for the scheduled time
        # and once for the issue (2-3, 4-5).  The completion is next.
        stamped = 6.0 if scenario is Scenario.OFFLINE else 3.0
        settings = TestSettings(
            scenario=scenario, min_query_count=1, offline_sample_count=2,
            # Not yet met at the stamp, met one reading later.
            min_duration=stamped - 1.0 + 0.5)
        loop = EventLoop(SteppingClock())
        sut = HeldSUT()
        log = QueryLog()
        driver = make_driver(
            loop, settings, sut,
            PerformanceSource(SampleSelector(range(8), seed=1)), log)
        driver.start()
        assert driver.stats.start_time == 1.0
        issued = len(sut.queries)
        query = sut.queries[0]
        driver.handle_completion(
            query, [QuerySampleResponse(s.id, None) for s in query.samples])
        assert log.record_for(query.id).completion_time == stamped
        assert len(sut.queries) == issued  # nothing more was issued


class TestMultiStreamKeepsItsCadence:
    """The arrival interval is fixed (Table III): under measured time
    the next tick is due one interval after the last one was *due*, not
    after whenever the loop got round to it, and a query's scheduled
    time is the tick's due time."""

    def test_ticks_are_due_on_multiples_of_the_interval(self):
        from repro.core.logging import QueryLog
        from repro.core.sampler import SampleSelector
        from repro.core.scenarios import PerformanceSource, make_driver

        settings = TestSettings(
            scenario=Scenario.MULTI_STREAM, multistream_interval=10.0,
            multistream_samples_per_query=3, min_query_count=5,
            min_duration=0.0)
        loop = EventLoop(SteppingClock())
        sut, log = HeldSUT(), QueryLog()
        driver = make_driver(
            loop, settings, sut,
            PerformanceSource(SampleSelector(range(8), seed=1)), log)
        driver.start()
        assert driver.stats.start_time == 1.0
        assert loop._heap[0].time == 11.0
        driver._tick()  # by hand: this clock would make run() sleep
        (query,) = sut.queries
        assert query.sample_count == 3
        assert log.record_for(query.id).scheduled_time == 11.0
        driver._tick()  # the held query is still in flight: a skip
        assert driver.stats.total_skipped_ticks == 1
        assert sorted(event.time for event in loop._heap) == [
            11.0, 21.0, 31.0]


class SlowToIssueSUT(FixedLatencyWallSUT):
    """Answers at once, but each ``issue_query`` spends 1 ms of host
    time before it returns."""

    def issue_query(self, query):
        time.sleep(0.001)
        super().issue_query(query)


class TestServerArrivalsKeepTheirSchedule:
    """The open loop stays open under measured time: arrival ``i`` is
    due at the start plus the first ``i`` seeded gaps, whatever the
    loop's wake-ups and the SUT's issue path cost (paper Table II: the
    Server schedule depends only on the seed)."""

    def test_a_slow_issue_path_does_not_stretch_the_gaps(self, echo_qsl):
        settings = TestSettings(
            scenario=Scenario.SERVER, server_target_qps=500.0,
            server_latency_bound=0.05, min_query_count=500,
            min_duration=1.0, watchdog_timeout=20.0)
        virtual = run_benchmark(FixedLatencyWallSUT(0.0), echo_qsl, settings)
        wall = run_benchmark(SlowToIssueSUT(0.0), echo_qsl, settings,
                             clock=WallClock())
        start = wall.stats.start_time
        scheduled = [r.scheduled_time for r in virtual.log.records()]
        assert [r.scheduled_time - start for r in wall.log.records()] == (
            pytest.approx(scheduled, rel=0, abs=1e-9))
        # The draw's own rate (about 487 qps over these 500 gaps) is the
        # target the issues must keep; stretched gaps offer ~2/3 of it.
        target = (len(scheduled) - 1) / (scheduled[-1] - scheduled[0])
        issues = [r.issue_time for r in wall.log.records()]
        offered = (len(issues) - 1) / (issues[-1] - issues[0])
        assert offered == pytest.approx(target, rel=0.03)


class AnswersFromAThread:
    """An inner SUT the way ``NetworkSUT``'s reader is one: it schedules
    nothing, and each answer arrives ``delay`` later from another thread
    through ``loop.post``."""

    name = "threaded"

    def __init__(self, delay):
        self.delay = delay
        self.timers = []

    def start_run(self, loop, responder):
        self.loop = loop
        self.responder = responder

    def issue_query(self, query):
        responses = [QuerySampleResponse(s.id, s.index) for s in query.samples]
        timer = threading.Timer(self.delay, lambda: self.loop.post(
            lambda: self.responder(query, responses)))
        timer.daemon = True
        self.timers.append(timer)
        timer.start()

    def flush(self):
        pass


class TestOneDeadlineTimerUnderMeasuredTime:
    """The attempt engine keeps one loop event for all its deadlines; a
    realtime loop exits when heap and posted queue are empty, so that
    event is what keeps it listening for answers from other threads."""

    def test_an_armed_deadline_keeps_a_bare_loop_alive_for_the_answer(self):
        loop = EventLoop(WallClock())
        heard = []
        inner = AnswersFromAThread(0.05)
        sut = ResilientSUT(inner, RetryPolicy(attempt_timeout=5.0))
        sut.start_run(loop, lambda q, a: heard.append((time.monotonic(), a)))
        query = Query(id=1, samples=(QuerySample(id=1, index=7),))
        started = time.monotonic()
        loop.schedule_after(0.0, lambda: sut.issue_query(query))
        # The driver's "no more queries": once the table is empty the
        # timer goes too, and the loop has nothing left to wait for.
        loop.schedule_after(0.0, sut.flush)
        loop.run()
        ended = time.monotonic()
        (when, answer), = heard
        assert [r.data for r in answer] == [7]
        assert when - started >= 0.05
        assert ended - when < 1.0  # not the five seconds of the deadline
        assert loop.pending() == 0
        for timer in inner.timers:
            timer.join(timeout=1.0)

    def test_a_wrapped_wall_run_ends_a_janitor_period_after_it_drains(
            self, echo_qsl):
        inner = AnswersFromAThread(0.004)
        sut = ResilientSUT(inner, RetryPolicy(attempt_timeout=5.0))
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM, min_query_count=10,
            min_duration=0.0, watchdog_timeout=20.0)
        clock = WallClock()
        result = run_benchmark(sut, echo_qsl, settings, clock=clock)
        ended = clock.now()
        assert result.valid, result.validity.reasons
        assert result.metrics.query_count == 10
        assert sut.stats.retries == 0
        drained = max(r.completion_time
                      for r in result.log.completed_records())
        # One 10 ms janitor period (plus scheduling slack), not the five
        # seconds a deadline left ticking would hold the loop for.
        assert ended - drained < 0.5
        for timer in inner.timers:
            timer.join(timeout=1.0)
