"""Low-overhead metric primitives: Counter, Gauge, Histogram.

These are the leaves of the telemetry tree (`repro.metrics`).  Three
design rules keep them cheap enough to sit on the LoadGen issue path:

* **No locks on the write path.**  Every primitive is *single-writer*:
  one thread (usually the run's event-loop thread) owns it and mutates
  it with plain attribute arithmetic.  Concurrency is handled by
  updating inside a lock the caller already holds (the network server
  observes its histograms inside the critical sections that guard
  ``ServerStats``).
* **No time reads.**  A primitive never looks at a clock; observations
  are pure values.  That is what keeps the virtual-time path bit-exact
  reproducible: a metric can only reflect what the (deterministic) run
  fed it.
* **Fixed memory.**  A histogram is a fixed array of integer bucket
  counts; nothing grows with the number of observations, so a
  100-million-query run costs the same RAM as a 10-query one.

The histogram is log-bucketed: bucket boundaries form a geometric
series, so relative reconstruction error is bounded by the growth
factor regardless of magnitude - the right trade for latencies that
span microseconds to minutes.  Percentile *ranks* are exact (computed
from exact integer counts); the returned *value* is interpolated inside
one bucket, so it is within a factor of ``growth`` of the true order
statistic (< 4.5% with the default ``growth = 2**(1/16)``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, List, Optional, Sequence, Tuple

from ..bounds import ABOVE_ONE, AT_LEAST_TWO, POSITIVE, check_range

__all__ = ["Counter", "Gauge", "Histogram", "DEFAULT_BASE", "DEFAULT_GROWTH",
           "DEFAULT_BUCKETS"]

#: Upper bound of the first histogram bucket, seconds (1 microsecond).
DEFAULT_BASE = 1e-6
#: Geometric bucket growth factor: 16 buckets per octave (~4.4% wide).
DEFAULT_GROWTH = 2.0 ** (1.0 / 16.0)
#: Bucket count.  512 buckets at the default growth cover 1 us .. 2^32 us
#: (~71 minutes) before the overflow bucket catches the rest.
DEFAULT_BUCKETS = 512


class Counter:
    """A monotonically increasing count (queries issued, faults injected).

    Single-writer by design (see the module docstring); cross-thread
    aggregation goes through per-thread label children.

    Like a gauge, a counter may instead be backed by a zero-argument
    callable (``Counter(fn=...)``): :attr:`value` then reads the count
    from wherever the owning layer already keeps it (a ``*Stats``
    field, the query log) and the counter rejects writes.
    """

    __slots__ = ("_value", "_fn")

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (finite and >= 0) to the counter.  NaN or an
        infinity would stick for the rest of the run, so it is refused
        before the count changes."""
        if self._fn is not None:
            raise ValueError("cannot inc a callback-backed counter")
        if not 0 <= amount < math.inf:
            raise ValueError(
                f"counters only go up by a finite amount; inc({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, in-flight queries).

    A gauge may instead be backed by a zero-argument callable
    (``Gauge(fn=...)``): reading :attr:`value` then *pulls* the number
    from live state at collection time, which costs the hot path
    nothing.  Callback gauges reject writes.
    """

    __slots__ = ("_value", "_fn")

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("cannot set a callback-backed gauge")
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-size log-bucketed distribution with exact-rank percentiles.

    Bucket ``0`` holds every observation ``<= base``; bucket ``k`` holds
    ``(base * growth**(k-1), base * growth**k]``; the final bucket also
    absorbs overflow (its logical upper edge is +inf).  ``sum``, ``count``,
    ``min`` and ``max`` are tracked exactly, so the mean and the extremes
    carry no bucketing error; only interior percentiles are quantized,
    with relative error bounded by ``growth - 1``.
    """

    __slots__ = ("base", "growth", "_counts", "_count", "_sum", "_min",
                 "_max", "_uppers")

    def __init__(
        self,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        check_range("base", base, POSITIVE)
        check_range("growth", growth, ABOVE_ONE)
        check_range("buckets", buckets, AT_LEAST_TWO)
        self.base = base
        self.growth = growth
        self._counts: List[int] = [0] * buckets
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Finite upper edges, precomputed: the hot path bisects them
        # and never evaluates growth**k per observation.
        self._uppers: List[float] = [
            base * growth ** k for k in range(buckets - 1)
        ]

    # -- writing ---------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to bucket 0).

        This is the hot path (one call per completed query); the bucket
        lookup is inlined rather than delegated to :meth:`_index` to
        spare a Python call per observation.  NaN and infinities are
        rejected before anything is recorded.
        """
        if not -math.inf < value < math.inf:
            raise ValueError(f"cannot observe a non-finite value: {value}")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._counts[bisect_left(self._uppers, value)] += 1

    def _index(self, value: float) -> int:
        # The edges are the authority: bucket k holds
        # (uppers[k-1], uppers[k]]; uppers[0] is base, so everything at
        # or below it lands in 0, and past the last edge is overflow.
        return bisect_left(self._uppers, value)

    # -- reading ---------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def bucket_upper(self, index: int) -> float:
        """Upper edge of bucket ``index`` (+inf for the overflow bucket)."""
        if index >= len(self._counts) - 1:
            return math.inf
        return self._uppers[index]

    def bucket_lower(self, index: int) -> float:
        """Lower edge of bucket ``index`` (0 for the first)."""
        if index == 0:
            return 0.0
        return self._uppers[index - 1]

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """``(bucket index, count)`` for every non-empty bucket."""
        return [(i, c) for i, c in enumerate(self._counts) if c]

    def percentile(self, q: float) -> float:
        """Reconstruct the ``q``-quantile (``q`` in [0, 1]).

        The rank is exact: with ``n`` observations the target is order
        statistic ``ceil(q * n)`` (1-based), matching
        :func:`repro.core.stats.percentile`'s nearest-rank convention.
        The extreme ranks are returned *exactly* -- rank 1 is the
        tracked min (this is where ``q = 0.0`` lands) and rank ``n``
        the tracked max -- because both order statistics are known
        without bucketing error; a single-observation or single-bucket
        histogram therefore reproduces the nearest-rank answer
        verbatim.  Interior ranks are linearly interpolated across the
        containing bucket's width, clamped to the exact observed
        min/max so the estimate never leaves the data's true range.
        """
        return self.percentiles((q,))[0]

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        """:meth:`percentile` of each ``q``, in a *single* bucket walk.

        Snapshot capture reads several quantiles per histogram per tick;
        resolving them all in one pass (ranks sorted, walk stops at the
        highest) keeps the sampler's cost a small fraction of the run.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
        results = [0.0] * len(qs)
        if self._count == 0 or not qs:
            return results
        targets = []
        for slot, q in enumerate(qs):
            rank = max(1, math.ceil(q * self._count))
            if rank <= 1:  # exact order statistics, no walk needed
                results[slot] = self._min
            elif rank >= self._count:
                results[slot] = self._max
            else:
                targets.append((rank, slot))
        targets.sort()
        wanted = len(targets)
        pending = 0
        seen = 0
        for i, c in enumerate(self._counts):
            if not c:
                continue
            while pending < wanted and targets[pending][0] <= seen + c:
                rank, slot = targets[pending]
                lo = self.bucket_lower(i)
                hi = self.bucket_upper(i)
                if math.isinf(hi):
                    hi = self._max
                # Position of the target rank inside this bucket.
                frac = (rank - seen) / c
                estimate = lo + (hi - lo) * frac
                results[slot] = min(max(estimate, self._min), self._max)
                pending += 1
            if pending == wanted:
                return results
            seen += c
        # 1 < rank < count and the buckets sum to count, so the walk
        # above always lands; reaching here means the invariants broke.
        raise RuntimeError(
            f"bucket counts inconsistent with count={self._count}")
