"""Which bucket a histogram files a value into, pinned against the
shipped ``Histogram.observe``.

The log estimate plus edge repair that first shipped is kept below
verbatim as the oracle (do not edit it with the code).  The live
histogram must fill the same buckets - and keep the same count, sum,
min and max - for four ``(base, growth, buckets)`` settings, over
lognormal draws spanning every bucket and over the 4 representable
values either side of every bucket edge, where float wobble lives.
"""

import math

import numpy as np
import pytest

from repro.metrics import Histogram
from repro.metrics.primitives import (
    DEFAULT_BASE,
    DEFAULT_BUCKETS,
    DEFAULT_GROWTH,
)


class ShippedHistogram:
    """``Histogram.__init__``'s edges and ``observe`` as shipped."""

    def __init__(self, base, growth, buckets):
        self.base = base
        self.growth = growth
        self._counts = [0] * buckets
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._log_base = math.log(base)
        self._inv_log_growth = 1.0 / math.log(growth)
        self._uppers = [base * growth ** k for k in range(buckets - 1)]

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= self.base:
            self._counts[0] += 1
            return
        counts = self._counts
        k = math.ceil(
            (math.log(value) - self._log_base) * self._inv_log_growth
        )
        last = len(counts) - 1
        if k > last:
            counts[last] += 1
            return
        uppers = self._uppers
        while k > 0 and value <= uppers[k - 1]:
            k -= 1
        while k < last and value > uppers[k]:
            k += 1
        counts[k] += 1


SETTINGS = [
    (DEFAULT_BASE, DEFAULT_GROWTH, DEFAULT_BUCKETS),
    (1.0, 2.0, 8),
    (1e-3, 1.1, 200),
    (0.25, 1.0 + 1e-3, 64),
]


def lognormal_draws(base, growth, buckets, n=10_000, seed=0):
    """Draws whose logs cover the first bucket, every interior bucket
    and the overflow bucket."""
    span = (buckets - 1) * math.log(growth)
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.lognormal(
        mean=math.log(base) + span / 2, sigma=span / 3, size=n)]


def around_edges(uppers, ulps=4):
    values = []
    for edge in uppers:
        below = above = edge
        values.append(edge)
        for _ in range(ulps):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            values += [below, above]
    return values


def fill(histogram, values):
    for value in values:
        histogram.observe(value)
    return histogram


@pytest.mark.parametrize("base,growth,buckets", SETTINGS)
@pytest.mark.parametrize("source", ["lognormal", "edges"])
def test_buckets_match_the_shipped_observe(base, growth, buckets, source):
    live = Histogram(base=base, growth=growth, buckets=buckets)
    shipped = ShippedHistogram(base, growth, buckets)
    assert live._uppers == shipped._uppers
    if source == "lognormal":
        values = lognormal_draws(base, growth, buckets)
    else:
        values = around_edges(shipped._uppers)
    values += [-1.0, 0.0, base, 1e300]
    fill(live, values)
    fill(shipped, values)
    assert live._counts == shipped._counts
    assert (live.count, live.sum, live.min, live.max) == (
        shipped._count, shipped._sum, shipped._min, shipped._max)
    # And value by value, so two misfilings cannot cancel out.
    for value in values:
        one = ShippedHistogram(base, growth, buckets)
        one.observe(value)
        assert one._counts[live._index(value)] == 1, value
