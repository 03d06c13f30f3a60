"""EventLoop against a reference model, plus the contracts its fast
path must keep: ``(time, seq)`` pop order, lazy cancellation, heap
compaction, trains (one entry, each firing where a ``schedule`` call of
its own would put it), and a lock that is only taken when something was
posted."""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventHandle, EventLoop, VirtualClock, WallClock


class ReferenceLoop:
    """The specification: keep every event, sort by ``(time, seq)``."""

    class Handle:
        def __init__(self, time, seq, callback):
            self.time, self.seq, self.callback = time, seq, callback

        def cancel(self):
            self.callback = None

    class Train:
        def __init__(self, handles):
            self.handles = handles

        def cancel(self):
            for handle in self.handles:
                handle.cancel()

    def __init__(self):
        self.now, self.events, self.seq, self.stopped = 0.0, [], 0, False

    def schedule(self, when, callback):
        assert when >= self.now
        self.events.append(self.Handle(when, self.seq, callback))
        self.seq += 1
        return self.events[-1]

    def schedule_train(self, whens, callback):
        """A train is ``len(whens)`` back-to-back ``schedule`` calls."""
        return self.Train([self.schedule(when, callback) for when in whens])

    def _live(self):
        return sorted((e for e in self.events if e.callback is not None),
                      key=lambda e: (e.time, e.seq))

    def run(self, until=None):
        self.stopped = False
        while not self.stopped:
            live = self._live()
            if not live or (until is not None and live[0].time > until):
                break
            self.events.remove(live[0])
            self.now = live[0].time
            live[0].callback()
        if until is not None and until > self.now and not self.stopped:
            self.now = until
        return self.now

    def stop(self):
        self.stopped = True

    def pending(self):
        return len(self._live())


# Few distinct delays, so same-instant ties are the common case.
delays = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 3.5])
nested_ops = st.deferred(lambda: st.one_of(
    st.tuples(st.just("schedule"), delays, st.lists(nested_ops, max_size=3)),
    st.tuples(st.just("train"), st.lists(delays, min_size=1, max_size=4),
              st.lists(nested_ops, max_size=3)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("stop")),
))
programs = st.lists(
    st.one_of(nested_ops, st.tuples(st.just("run"), st.none() | delays)),
    max_size=25)


def execute(loop, program):
    """Interpret ``program`` on ``loop``; returns everything observable."""
    trace, handles = [], []

    def do(op):
        if op[0] == "schedule":
            label, children = len(handles), op[2]

            def fire():
                trace.append((label, loop.now))
                for child in children:
                    do(child)

            handles.append(loop.schedule(loop.now + op[1], fire))
        elif op[0] == "train":
            label, children, firings = len(handles), op[2], [0]

            def fire():
                trace.append((label, firings[0], loop.now))
                firings[0] += 1
                if len(trace) < 2_000:  # trains of trains multiply
                    for child in children:
                        do(child)

            whens, when = [], loop.now
            for delay in op[1]:
                when += delay
                whens.append(when)
            handles.append(loop.schedule_train(whens, fire))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "stop":
            loop.stop()
        else:
            until = None if op[1] is None else loop.now + op[1]
            trace.append(("ran", loop.run(until)))

    for op in program:
        do(op)
        trace.append(("state", loop.now, loop.pending()))
    # Stops can leave work behind; three drains are not required to
    # finish it, only to agree.
    for _ in range(3):
        trace.append(("drain", loop.run(), loop.pending()))
    return trace


@settings(max_examples=300, deadline=None)
@given(programs)
def test_random_programs_match_the_reference(program):
    assert execute(EventLoop(VirtualClock()), program) == \
        execute(ReferenceLoop(), program)


def test_compaction_keeps_pop_order():
    rng = random.Random(7)
    loop, reference = EventLoop(), ReferenceLoop()
    fired = {id(loop): [], id(reference): []}
    handles = []
    for label in range(2_000):
        when = rng.choice([1.0, 2.0, 2.0, 3.0]) + rng.randrange(4)
        for target in (loop, reference):
            handles.append(target.schedule(
                when, lambda t=target, n=label: fired[id(t)].append(n)))
    doomed = rng.sample(range(2_000), 1_500)
    for label in doomed:
        handles[2 * label].cancel()
        handles[2 * label + 1].cancel()
    # Cancelled entries were dropped in bulk, not left for the pops.
    assert loop.pending() == reference.pending() == 500
    assert len(loop._heap) <= 2 * 500 + 64
    assert loop.run() == reference.run()
    assert fired[id(loop)] == fired[id(reference)]
    assert len(fired[id(loop)]) == 500
    assert loop._heap == [] and loop.pending() == 0


def test_same_instant_event_scheduled_from_a_callback_runs_last():
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.schedule(1.0, lambda: seen.append("late joiner"))

    loop.schedule(1.0, first)
    loop.schedule(1.0, lambda: seen.append("second"))
    loop.run()
    assert seen == ["first", "second", "late joiner"]


def test_a_fired_event_is_not_cancelled_and_cancelling_it_counts_nothing():
    loop = EventLoop()
    fired = loop.schedule(1.0, lambda: None)
    waiting = loop.schedule(5.0, lambda: None)
    loop.run(until=2.0)
    assert not fired.cancelled and fired.time == 1.0
    fired.cancel()
    fired.cancel()
    assert fired.cancelled
    assert loop.pending() == 1
    waiting.cancel()
    waiting.cancel()  # twice is once
    assert loop.pending() == 0
    assert loop.run() == 2.0


def test_past_times_raise_on_a_virtual_loop_and_clamp_on_a_realtime_one():
    loop = EventLoop()
    loop.run(until=3.0)
    with pytest.raises(ValueError, match=r"in the past: now=3.0, when=2.5"):
        loop.schedule(2.5, lambda: None)
    assert loop.pending() == 0

    wall = EventLoop(WallClock())
    before = wall.now
    handle = wall.schedule(before - 10.0, lambda: None)
    assert before <= handle.time <= wall.now


def test_a_clock_moved_past_a_pending_event_cannot_run_backwards():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.clock.advance_to(2.0)
    with pytest.raises(ValueError, match="clock cannot run backwards"):
        loop.run()
    assert loop.now == 2.0


@pytest.mark.parametrize("whens", [
    [], [2.0, 1.0], [1.0, 3.0, 2.0], [math.nan], [1.0, math.nan],
    [math.nan, 1.0], [1.0, 2.0, math.nan],
], ids=["empty", "descending", "dip", "nan", "nan-second", "nan-first",
        "nan-last"])
def test_a_train_out_of_order_or_nan_schedules_nothing(whens):
    loop = EventLoop()
    loop.schedule(0.5, lambda: None)
    seq = loop._seq
    with pytest.raises(ValueError, match="train"):
        loop.schedule_train(whens, lambda: None)
    assert loop._seq == seq and loop.pending() == 1 and len(loop._heap) == 1


def test_a_train_starting_in_the_past_raises_like_schedule():
    loop = EventLoop()
    loop.run(until=3.0)
    with pytest.raises(ValueError, match=r"in the past: now=3.0, when=2.5"):
        loop.schedule_train([2.5, 4.0], lambda: None)
    assert loop._seq == 0 and loop.pending() == 0 and loop._heap == []


def test_a_train_pauses_at_until_and_at_stop_and_resumes_in_place():
    loop = EventLoop()
    seen = []

    def fire():
        seen.append(loop.now)
        if len(seen) == 3:
            loop.stop()

    train = loop.schedule_train([1.0, 2.0, 2.0, 3.0, 4.0], fire)
    other = loop.schedule(2.0, lambda: seen.append("other"))
    assert loop.pending() == 6 and len(loop._heap) == 2
    assert loop.run(until=1.5) == 1.5
    assert seen == [1.0] and loop.pending() == 5 and train.time == 2.0
    # The train's two 2.0 firings hold the sequence numbers below other's.
    assert loop.run() == 2.0
    assert seen == [1.0, 2.0, 2.0] and loop.pending() == 3
    assert not other.cancelled and loop.run(until=3.0) == 3.0
    assert seen == [1.0, 2.0, 2.0, "other", 3.0] and loop.pending() == 1
    assert loop.run() == 4.0 and loop.pending() == 0 and loop._heap == []
    train.cancel()  # it fired out: cancelling counts for nothing
    assert loop.pending() == 0 and loop._cancelled == 0


def test_cancelling_a_train_drops_every_firing_still_due():
    loop = EventLoop()
    seen = []
    train = loop.schedule_train([1.0, 2.0, 3.0, 4.0],
                                lambda: seen.append(loop.now))

    def halt():
        train.cancel()
        train.cancel()  # twice is once

    loop.schedule(2.5, halt)
    assert loop.pending() == 5
    assert loop.run() == 2.5
    assert seen == [1.0, 2.0] and loop.pending() == 0 and loop._heap == []
    assert train.cancelled and loop._owed == 0 and loop._cancelled == 0


def test_a_one_time_train_is_an_ordinary_event():
    loop = EventLoop()
    handle = loop.schedule_train([1.0], lambda: None)
    assert type(handle) is EventHandle and list(handle)[:2] == [1.0, 0]
    assert loop._seq == 1 and loop.pending() == 1


def test_a_train_on_a_wall_clock_loop_fires_in_order_and_runs_the_past_now():
    loop = EventLoop(WallClock())
    start = loop.now
    seen = []
    train = loop.schedule_train(
        [start - 1.0, start - 0.5, start + 0.01, start + 0.02],
        lambda: seen.append(loop.now))
    assert start <= train.time <= loop.now  # clamped, as schedule clamps
    assert loop.pending() == 4
    loop.schedule(start + 0.015, lambda: seen.append("between"))
    loop.run()
    assert seen[3] == "between" and len(seen) == 5
    times = [t for t in seen if t != "between"]
    assert times == sorted(times)
    assert times[2] >= start + 0.01 and times[3] >= start + 0.02
    assert loop.pending() == 0 and loop._heap == []


def test_compaction_with_cancelled_trains_keeps_pop_order():
    rng = random.Random(11)
    loop, reference = EventLoop(), ReferenceLoop()
    fired = {id(loop): [], id(reference): []}
    handles = []
    for label in range(600):
        start = rng.choice([1.0, 2.0, 2.0, 3.0]) + rng.randrange(4)
        whens = [start + step * rng.choice([0.0, 0.5])
                 for step in range(rng.randrange(1, 6))]
        whens.sort()
        for target in (loop, reference):
            def note(t=target, n=label):
                fired[id(t)].append((n, t.now))
            handles.append(target.schedule_train(whens, note)
                           if label % 2 else target.schedule(whens[0], note))
    assert loop.pending() == reference.pending()
    # Fire the early ones, so some trains are cancelled part-way through.
    assert loop.run(until=2.0) == reference.run(until=2.0)
    for label in rng.sample(range(600), 450):
        handles[2 * label].cancel()
        handles[2 * label + 1].cancel()
    assert loop.pending() == reference.pending()
    assert len(loop._heap) <= 2 * 150 + 64  # compacted in bulk
    assert loop.run() == reference.run()
    assert fired[id(loop)] == fired[id(reference)]
    assert loop._heap == [] and loop.pending() == 0 and loop._owed == 0


def test_posted_callbacks_run_before_heap_events_on_a_virtual_loop():
    loop = EventLoop()
    seen = []
    loop.schedule(0.0, lambda: seen.append(("heap", loop.now)))
    loop.post(lambda: seen.append(("posted-1", loop.now)))
    loop.post(lambda: seen.append(("posted-2", loop.now)))
    loop.run()
    assert seen == [("posted-1", 0.0), ("posted-2", 0.0), ("heap", 0.0)]


def test_two_thread_post_storm_loses_no_callback():
    """The loop checks ``_posted`` without the lock; a wake-up lost
    between that check and the wait would strand a callback until the
    keep-alive event, and the storm would overrun its deadline."""
    per_thread, threads = 3_000, 2
    loop = EventLoop(WallClock())
    seen = []

    def note(tag):
        seen.append(tag)
        if len(seen) == per_thread * threads:
            loop.stop()

    def storm(name):
        for n in range(per_thread):
            loop.post(lambda tag=(name, n): note(tag))

    # The keep-alive a realtime caller owes the loop; also the bound.
    loop.schedule(loop.now + 30.0, loop.stop)
    workers = [threading.Thread(target=storm, args=(name,), daemon=True)
               for name in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = loop.now
        for worker in workers:
            worker.start()
        loop.run()
        elapsed = loop.now - started
    finally:
        sys.setswitchinterval(interval)
    for worker in workers:
        worker.join(timeout=5.0)
        assert not worker.is_alive()
    assert len(seen) == per_thread * threads
    assert elapsed < 25.0
    for name in range(threads):  # per-thread posting order survives
        assert [n for who, n in seen if who == name] == list(range(per_thread))
