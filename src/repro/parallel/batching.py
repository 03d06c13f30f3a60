"""Dynamic batching for the parallel backend.

Same shape as the edge batcher inside ``repro.network.server``'s
request queue -- accumulate until either ``max_batch_size`` samples are
pending or the oldest query has waited ``max_wait`` seconds -- but
driven by the SUT's event loop instead of a condition variable, so it
behaves identically under the virtual clock (deterministic tests) and
the wall clock (real serving).

Queries are never split: a query's samples always travel in one
dispatch, because the LoadGen's latency accounting is per query.  An
oversized query simply ships as its own batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, check_range
from ..core.events import EventLoop
from ..core.query import Query


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs for the dynamic batcher.

    ``max_wait`` is in seconds (the paper's serving systems quote
    microseconds; 2000us is the default here).  ``max_batch_size``
    counts samples, not queries, matching the device-side batch the
    workers actually see.
    """

    max_batch_size: int = 256
    max_wait: float = 0.002

    def __post_init__(self) -> None:
        check_range("max_batch_size", self.max_batch_size, AT_LEAST_ONE)
        check_range("max_wait", self.max_wait, NON_NEGATIVE)


class DynamicBatcher:
    """Accumulates queries and fires ``dispatch`` with the batch.

    ``dispatch`` receives ``[(query, wait_seconds), ...]`` in arrival
    order, where ``wait_seconds`` is how long each query sat in the
    batcher (loop-clock time, so exact under the virtual clock).
    """

    def __init__(self, loop: EventLoop, policy: BatchingPolicy,
                 dispatch: Callable[[Sequence[Tuple[Query, float]]], None],
                 ) -> None:
        self._loop = loop
        self._policy = policy
        self._dispatch = dispatch
        self._pending: List[Tuple[Query, float]] = []
        self._pending_samples = 0
        self._timer: Optional[object] = None
        self.batches = 0  #: dispatch count (observability)

    def add(self, query: Query) -> None:
        self._pending.append((query, self._loop.now))
        self._pending_samples += query.sample_count
        if self._pending_samples >= self._policy.max_batch_size:
            self._fire()
        elif self._timer is None and self._policy.max_wait > 0:
            self._timer = self._loop.schedule_after(
                self._policy.max_wait, self._on_timer)
        elif self._policy.max_wait == 0:
            self._fire()

    def flush(self) -> None:
        """Dispatch whatever is pending (end of run / drain)."""
        if self._pending:
            self._fire()

    def _on_timer(self) -> None:
        self._timer = None
        if self._pending:
            self._fire()

    def _fire(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        self._pending_samples = 0
        now = self._loop.now
        self.batches += 1
        self._dispatch([(query, now - arrived) for query, arrived in batch])
