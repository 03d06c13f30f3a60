"""Discrete-event simulation engine and clock abstractions.

The MLPerf Inference scenarios are defined in terms of wall-clock time:
Poisson arrivals in the server scenario, fixed arrival intervals in
multistream, a 60-second minimum run duration, and so on.  Running the
paper's query counts (270,336 queries for a 99th-percentile guarantee) in
real time would take hours, exactly as the paper notes for multistream
runs (2.5-7.0 hours).  This module provides a virtual-time event loop so
the same scenario logic executes in milliseconds while preserving the
timing semantics exactly.

Two clock implementations are provided:

* :class:`VirtualClock` - advanced only by the event loop; deterministic.
* :class:`WallClock` - reads ``time.monotonic``; used when a real backend
  must be measured (its measured durations are then replayed as virtual
  service times, see ``repro.sut.backend``).

The event loop is intentionally small: a heap of ``[time, sequence,
callback, loop]`` lists, ordered by C list comparison.  The sequence
number is unique, so the callback is never compared, and guarantees FIFO
order among events scheduled for the same instant (reproducible logs).

A *train* (:meth:`EventLoop.schedule_train`) fires one callback at each
of several ascending times - a streamed answer's chunks - from one heap
entry ``[time, sequence, callback, loop, times, left]``.  It takes the
block of sequence numbers its firings would have taken one
:meth:`~EventLoop.schedule` call each, and the loop moves the entry to
its next ``(time, sequence)`` in place before each firing but the last,
so every firing keeps the place among same-instant events it would have
had as an event of its own.

A loop built over any other :class:`Clock` runs in *realtime* mode: it
sleeps until each event is due, and the network subsystem's socket reader
threads deliver completions back onto the run's single-threaded timeline
through the thread-safe :meth:`EventLoop.post`.
"""

from __future__ import annotations

import collections
import functools
import heapq
import operator
import threading
import time as _time
from typing import Callable, Deque, List, Optional, Sequence


class RunAbortedError(RuntimeError):
    """An event callback raised and the run cannot continue.

    Wraps the original exception with the event-loop context a bare
    traceback loses: the virtual time at which the event fired and the
    callback that owned it.  The LoadGen converts this into an INVALID
    run result instead of crashing the whole process.
    """

    def __init__(self, message: str, *, time: float, origin: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.time = time
        self.origin = origin
        self.cause = cause


class Clock:
    """Minimal time source interface used throughout the benchmark."""

    def now(self) -> float:
        """Return the current time in seconds."""
        raise NotImplementedError


class WallClock(Clock):
    """Real time, via ``time.monotonic``."""

    #: ``time.monotonic`` itself, so a reading runs no Python frame.
    now = staticmethod(_time.monotonic)


class VirtualClock(Clock):
    """Simulated time, advanced explicitly by an :class:`EventLoop`.

    It starts at 0.0.  The time is the one slot of a list, ``_cell``,
    that :meth:`EventLoop.run` writes as each event fires; ``now`` is
    the instance attribute ``partial(getitem, _cell, 0)``, so a reading
    runs no Python frame, as :class:`WallClock`'s does not, and every
    module reads either clock the same way: ``loop.clock.now()``."""

    def __init__(self) -> None:
        self._cell = cell = [0.0]
        self.now = functools.partial(operator.getitem, cell, 0)

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.  Time never runs backwards."""
        cell = self._cell
        if t < cell[0]:
            raise ValueError(
                f"clock cannot run backwards: now={cell[0]}, target={t}")
        cell[0] = t


class EventHandle(list):
    """Returned by :meth:`EventLoop.schedule`: the heap entry ``[time,
    seq, callback, loop]`` itself.  Cancelling clears the callback and
    the loop; the loop clears its own slot when it pops the entry, so an
    event that fired is not "cancelled" and cancelling it later counts
    for nothing.
    A train's handle is a :class:`_Train`: the same entry with two slots
    more, whose ``time`` is that of the firing due next."""

    __slots__ = ()

    def cancel(self) -> None:
        callback, loop = self[2], self[3]
        # The entry may sit in the heap until its time comes: holding
        # the loop that holds it would make the two a cycle.
        self[2] = self[3] = None
        if loop is not None and callback is not None:
            loop._cancelled += 1
            if loop._cancelled > 64 and 2 * loop._cancelled > len(loop._heap):
                loop._compact()

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    @property
    def time(self) -> float:
        return self[0]


class _Train(EventHandle):
    """A train's heap entry ``[time, seq, callback, loop, times, left]``:
    ``times`` are all of its firing times and ``left`` is how many of
    them follow the one the entry stands at.  Tagged by class so that
    ``run`` tells it from an ordinary event with one identity test, and
    ordinary entries stay four slots long.  Cancelling it drops every
    firing still due."""

    __slots__ = ()

    def cancel(self) -> None:
        loop = self[3]
        if loop is not None and self[2] is not None:
            loop._owed -= self[5]
        EventHandle.cancel(self)


def _aborted(callback, when: float, exc: Exception) -> RunAbortedError:
    # A functools.partial has no name of its own: name what it calls
    # (its repr would print every bound argument - a whole query).
    target = (callback.func if isinstance(callback, functools.partial)
              else callback)
    origin = getattr(target, "__qualname__", None) or repr(callback)
    return RunAbortedError(
        f"event callback raised at t={when:.6f}s (origin {origin}): {exc!r}",
        time=when, origin=origin, cause=exc)


class EventLoop:
    """A deterministic discrete-event loop over a :class:`VirtualClock`.

    Events are callbacks scheduled at absolute virtual times.  ``run``
    drains the heap; each callback may schedule further events.  The loop
    is single-threaded, so every run is reproducible given the same seeds.

    Over a non-virtual clock the loop runs in *realtime* mode: ``run``
    sleeps until the next event is due instead of advancing the clock,
    and callbacks handed to :meth:`post` from other threads (socket
    readers, worker pools) wake the sleep and execute on the loop's
    thread.  Ordering, cancellation and abort wrapping are identical, so
    scenario drivers work unmodified under measured time.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        #: True over real time (the loop sleeps), False over a virtual clock.
        self.realtime = not isinstance(self.clock, VirtualClock)
        self._heap: List[EventHandle] = []
        self._seq = 0
        self._cancelled = 0  #: cancelled entries still in the heap
        self._owed = 0  #: firings live trains owe beyond their heap entry
        self._stopped = False
        self._posted: Deque[Callable[[], None]] = collections.deque()
        self._wakeup = threading.Condition()

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when`` (seconds)."""
        now = self.clock.now()
        if not when >= now:  # the past, or NaN (which would corrupt the heap)
            if not self.realtime:
                raise ValueError(
                    f"cannot schedule event in the past: now={now}, when={when}")
            # Under measured time "the past" is routine (a deadline computed
            # a microsecond ago has slipped): run as soon as possible.
            when = now
        entry = EventHandle((when, self._seq, callback, self))
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_train(self, whens: Sequence[float],
                       callback: Callable[[], None]) -> EventHandle:
        """Fire ``callback`` once at each of the ascending times
        ``whens``, in exactly the order ``len(whens)`` back-to-back
        :meth:`schedule` calls would give, from one heap entry.

        The first time goes through :meth:`schedule`, so whatever wraps
        it wraps the train's callback too; the train then reserves the
        sequence numbers the other times would have taken.  Times out of
        order or NaN raise ``ValueError`` with nothing scheduled.  The
        returned handle stands at the firing due next; cancelling it
        drops every firing still due.
        """
        times = tuple(whens)
        if not times:
            raise ValueError("a train needs at least one time")
        left, prev = -1, times[0]
        for when in times:  # counts, too: no len() frame per train
            if not prev <= when:  # out of order, or NaN
                raise ValueError(f"train times must ascend, got {times}")
            prev = when
            left += 1
        entry = self.schedule(times[0], callback)
        if left:
            entry.__class__ = _Train
            entry += (times, left)
            self._seq += left
            self._owed += left
        return entry

    def post(self, callback: Callable[[], None]) -> None:
        """Hand ``callback`` to the loop from any thread.

        The only :class:`EventLoop` entry point that is safe to call off
        the loop's own thread.  Posted callbacks run at the loop's
        current time, before any heap event, in posting order; a sleeping
        realtime loop is woken immediately.
        """
        with self._wakeup:
            self._posted.append(callback)
            self._wakeup.notify()

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if not delay >= 0:  # negative or NaN
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.clock.now() + delay, callback)

    def stop(self) -> None:
        """Stop the loop after the currently executing event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order.

        Runs until the heap is empty, ``stop`` is called, or the next
        event would occur after ``until``; unless stopped, the clock is
        then advanced to ``until``.  Returns the final clock reading.

        In realtime mode the loop sleeps (interruptibly - :meth:`post`
        wakes it) until the next event is due, and exits once both the
        heap and the posted queue are empty; callers that expect work
        from other threads keep a future event (deadline, janitor tick)
        in the heap so the loop stays alive to receive it.
        """
        self._stopped = False
        heap, posted, wakeup = self._heap, self._posted, self._wakeup
        clock, realtime, pop = self.clock, self.realtime, heapq.heappop
        replace, train = heapq.heapreplace, _Train
        cell = None if realtime else clock._cell  # the virtual time
        while not self._stopped:
            # Deque operations are atomic: an empty queue needs no lock.
            if posted:
                with wakeup:
                    callback = posted.popleft()
                when = clock.now()
            elif not heap:
                break
            else:
                entry = heap[0]
                when, callback = entry[0], entry[2]
                if callback is None:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and when > until:
                    break
                if realtime:
                    delay = when - clock.now()
                    if delay > 0:
                        with wakeup:
                            if not posted:
                                wakeup.wait(timeout=delay)
                        continue  # re-check: a post may have arrived
                if entry.__class__ is train and entry[5]:
                    # Not the train's last firing: move it on to the next
                    # time and its reserved sequence number, then fire.
                    left = entry[5]
                    entry[0] = entry[4][-left]
                    entry[1] += 1
                    entry[5] = left - 1
                    self._owed -= 1
                    replace(heap, entry)
                else:
                    pop(heap)
                    entry[3] = None
                if not realtime:
                    if when < cell[0]:
                        clock.advance_to(when)  # raises: never backwards
                    cell[0] = when
            try:
                callback()
            except RunAbortedError:
                raise
            except Exception as exc:
                raise _aborted(callback, when, exc) from exc
        # A stopped run may leave earlier events behind: the clock stays put.
        if until is not None and not (realtime or self._stopped) and until > cell[0]:
            cell[0] = until
        return clock.now()

    def _compact(self) -> None:
        """Drop the cancelled entries (they outnumber the live ones), in
        place because ``run`` holds the list; ``(time, seq)`` is a total
        order, so pop order cannot change."""
        self._heap[:] = [e for e in self._heap if e[2] is not None]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def clear(self) -> None:
        """Drop every event still due: a run that stopped early leaves
        some behind, and each one's entry holds the loop."""
        self._heap.clear()
        self._cancelled = self._owed = 0

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue, a train
        counting every firing it still has due (one heap entry holds
        them all)."""
        return len(self._heap) - self._cancelled + self._owed
