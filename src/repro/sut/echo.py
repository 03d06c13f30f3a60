"""A trivial echo SUT: answers every sample with its own library index.

The smallest possible well-behaved backend.  It exists for plumbing
tests and examples - especially the network subsystem, where the point
is to measure the *wire*, so the backend behind it should contribute a
known, fixed service time and a payload whose correctness is checkable
at the far end (the echoed index).

Works under both clocks: with ``latency == 0`` completion is synchronous;
otherwise it is scheduled on the run loop, which realises the delay in
virtual or wall time as appropriate.

With ``concurrency=c`` the echo models ``c`` serving slots: a query
whose slots are all busy queues for the earliest one, so capacity is
exactly ``c / latency`` queries per second and latency grows without
bound past it - the monotone validity the fleet capacity sweep bisects
on (``repro sweep``).  The default (``None``) keeps the classic
infinite-capacity behavior.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import List, Optional

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, check_range
from ..core.query import Query, new_response
from ..core.sut import SutBase


class EchoSUT(SutBase):
    """Complete each query after ``latency`` seconds, echoing indices."""

    def __init__(self, latency: float = 0.0, name: Optional[str] = None,
                 concurrency: Optional[int] = None) -> None:
        super().__init__(name or "echo")
        check_range("latency", latency, NON_NEGATIVE)
        if concurrency is not None:
            check_range("concurrency", concurrency, AT_LEAST_ONE)
        self.latency = latency
        self.concurrency = concurrency
        self.queries_served = 0
        #: Busy-until times of occupied slots (min-heap), concurrency mode.
        self._busy: List[float] = []

    def start_run(self, loop, responder) -> None:
        super().start_run(loop, responder)
        self._busy = []

    def issue_query(self, query: Query) -> None:
        # A sample is the pair (id, index): exactly its echo's fields.
        responses = list(map(new_response, query.samples))
        self.queries_served += 1
        if self.concurrency is None:
            if self.latency == 0:
                self.complete(query, responses)
            else:
                # partial(self.complete, ...), not the responder itself: a
                # fleet's responder is a partial already, and an abort
                # names its origin by unwrapping exactly one.
                self._loop.schedule_after(
                    self.latency, partial(self.complete, query, responses)
                )
            return
        now = self._loop.now
        # Queue for the earliest slot: pop its free time and replace it
        # with this query's completion, so the heap always holds each
        # slot's next-free time.
        if len(self._busy) < self.concurrency:
            start = now
        else:
            start = max(now, heapq.heappop(self._busy))
        done = start + self.latency
        heapq.heappush(self._busy, done)
        if done <= now:
            self.complete(query, responses)
        else:
            self._loop.schedule_after(
                done - now, partial(self.complete, query, responses)
            )
