"""Event loop and clock behaviour."""

import cProfile
import math
import pstats

import pytest

from repro.core.events import (
    Clock, EventLoop, RunAbortedError, VirtualClock, WallClock)


def test_virtual_clock_starts_at_zero():
    assert VirtualClock().now() == 0.0


def test_virtual_clock_advances():
    clock = VirtualClock()
    clock.advance_to(1.5)
    assert clock.now() == 1.5


def test_virtual_clock_rejects_backwards():
    clock = VirtualClock()
    clock.advance_to(2.0)
    with pytest.raises(ValueError):
        clock.advance_to(1.0)


def test_wall_clock_is_monotonic():
    clock = WallClock()
    assert clock.now() <= clock.now()


def test_events_run_in_time_order():
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, lambda: seen.append("b"))
    loop.schedule(1.0, lambda: seen.append("a"))
    loop.schedule(3.0, lambda: seen.append("c"))
    loop.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    loop = EventLoop()
    seen = []
    for tag in range(5):
        loop.schedule(1.0, lambda tag=tag: seen.append(tag))
    loop.run()
    assert seen == [0, 1, 2, 3, 4]


def test_clock_matches_event_time_during_callback():
    loop = EventLoop()
    observed = []
    loop.schedule(4.5, lambda: observed.append(loop.now))
    loop.run()
    assert observed == [4.5]


def test_callbacks_can_schedule_more_events():
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.schedule_after(1.0, lambda: seen.append("second"))

    loop.schedule(1.0, first)
    loop.run()
    assert seen == ["first", "second"]
    assert loop.now == 2.0


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.schedule(0.5, lambda: None)


def test_schedule_after_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule_after(-0.1, lambda: None)


def test_a_nan_time_is_rejected_where_it_is_scheduled():
    """``nan < now`` is false, so a NaN used to get into the heap, break
    its order (events at 2.0, NaN, 1.0, 0.5 popped 1.0 before 0.5) and
    kill the run later with "clock cannot run backwards"."""
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, lambda: seen.append(2.0))
    with pytest.raises(ValueError, match="in the past.*when=nan"):
        loop.schedule(float("nan"), lambda: seen.append("nan"))
    with pytest.raises(ValueError, match="non-negative, got nan"):
        loop.schedule_after(float("nan"), lambda: seen.append("nan"))
    loop.schedule(1.0, lambda: seen.append(1.0))
    loop.schedule(0.5, lambda: seen.append(0.5))
    loop.run()
    assert seen == [0.5, 1.0, 2.0]


def test_a_nan_time_under_measured_time_runs_as_soon_as_possible():
    # The measured clock's past-time branch, which NaN now takes too.
    loop = EventLoop(WallClock())
    seen = []
    handle = loop.schedule(float("nan"), lambda: seen.append("ran"))
    assert not math.isnan(handle.time)
    loop.run()
    assert seen == ["ran"]


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    seen = []
    handle = loop.schedule(1.0, lambda: seen.append("x"))
    handle.cancel()
    loop.run()
    assert seen == []
    assert handle.cancelled


def test_cancelling_the_earliest_event_lets_the_next_one_fire_first():
    loop = EventLoop()
    fired = []
    loop.schedule(3.0, lambda: fired.append(loop.now)).cancel()
    loop.schedule(7.0, lambda: fired.append(loop.now))
    assert loop.run() == 7.0
    assert fired == [7.0]


def test_run_returns_the_final_clock_reading():
    loop = EventLoop()
    assert loop.run() == 0.0
    loop.schedule(1.5, lambda: None)
    assert loop.run() == 1.5
    assert loop.run(until=4.0) == 4.0


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append("a"))
    loop.schedule(5.0, lambda: seen.append("b"))
    loop.run(until=2.0)
    assert seen == ["a"]
    assert loop.now == 2.0
    loop.run()
    assert seen == ["a", "b"]


def test_stop_halts_processing():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: (seen.append("a"), loop.stop()))
    loop.schedule(2.0, lambda: seen.append("b"))
    loop.run()
    assert seen == ["a"]
    assert loop.pending() == 1


class TestRunAbortedError:
    def test_callback_exception_becomes_run_aborted(self):
        loop = EventLoop()

        def explode():
            raise KeyError("boom")

        loop.schedule(2.5, explode)
        with pytest.raises(RunAbortedError) as excinfo:
            loop.run()
        err = excinfo.value
        assert err.time == 2.5
        assert "explode" in err.origin
        assert isinstance(err.cause, KeyError)
        assert "t=2.500000s" in str(err)

    def test_partial_callback_is_named_after_what_it_calls(self):
        """A partial's repr prints its bound arguments (for a completion,
        a whole query) and an object address, which would differ between
        same-seed runs."""
        import functools

        class Relay:
            def deliver(self, payload):
                raise KeyError("boom")

        loop = EventLoop()
        loop.schedule(1.0, functools.partial(Relay().deliver, list(range(99))))
        with pytest.raises(RunAbortedError) as excinfo:
            loop.run()
        assert excinfo.value.origin.endswith("Relay.deliver")
        assert "0x" not in str(excinfo.value)
        assert "98" not in excinfo.value.origin

    def test_only_a_partial_is_unwrapped(self):
        """Any other callable that happens to carry a ``func`` attribute
        keeps its own name."""

        def deliver():
            raise KeyError("boom")

        deliver.func = print
        loop = EventLoop()
        loop.schedule(1.0, deliver)
        with pytest.raises(RunAbortedError) as excinfo:
            loop.run()
        assert excinfo.value.origin.endswith("deliver")

    def test_existing_run_aborted_error_propagates_unwrapped(self):
        loop = EventLoop()
        original = RunAbortedError("inner abort", time=1.0, origin="x")

        def reraise():
            raise original

        loop.schedule(1.0, reraise)
        with pytest.raises(RunAbortedError) as excinfo:
            loop.run()
        assert excinfo.value is original

    def test_loop_state_is_consistent_after_abort(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(2.0, lambda: (_ for _ in ()).throw(ValueError("bad")))
        loop.schedule(3.0, lambda: seen.append("c"))
        with pytest.raises(RunAbortedError):
            loop.run()
        assert seen == ["a"]
        assert loop.now == 2.0
        assert loop.pending() == 1  # the event after the abort survives


def test_pending_counts_live_events():
    loop = EventLoop()
    assert loop.pending() == 0
    handle = loop.schedule(3.0, lambda: None)
    loop.schedule(7.0, lambda: None)
    assert loop.pending() == 2
    handle.cancel()
    assert loop.pending() == 1


class HeldClock(Clock):
    """A measured clock that reads what the test last set."""

    def __init__(self):
        self.reading = 0.0

    def now(self):
        return self.reading

    def advance_to(self, t):
        self.reading = t


def test_a_virtual_clock_reading_runs_no_python_frame():
    loop = EventLoop()
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(1_000):
        loop.clock.now()
    profile.disable()
    calls = {name: counts[1] for (_, _, name), counts
             in pstats.Stats(profile).stats.items()}
    calls.pop("<method 'disable' of '_lsprof.Profiler' objects>")
    assert calls == {}


@pytest.mark.parametrize("make_clock", [VirtualClock, HeldClock])
def test_the_loop_and_its_clock_read_the_same_time(make_clock):
    loop = EventLoop(make_clock())
    inside = []

    def look():
        inside.append((loop.now, loop.clock.now()))

    loop.clock.advance_to(1.0)
    assert loop.now == loop.clock.now() == 1.0
    loop.schedule(1.0, look)
    assert loop.run() == loop.now == loop.clock.now() == 1.0
    loop.schedule(1.0, look)
    assert loop.run(3.0) == loop.now == loop.clock.now()
    assert loop.now == (1.0 if loop.realtime else 3.0)
    assert inside == [(1.0, 1.0)] * 2
