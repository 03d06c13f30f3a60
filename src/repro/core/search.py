"""The one capacity search: the largest value a monotone probe accepts.

Every tuned metric of Table II is the answer to this search - the
highest Poisson rate, stream count or burst rate at which a run is still
valid, found by repeated runs (Section III-D).  :func:`max_valid` owns
the bracket discovery, the bisection, the probe budget and the three
endings; a caller supplies the probe (``value -> outcome``, truthy when
the run at ``value`` is valid) and the :class:`Axis` the values live on.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, NamedTuple, Optional, Tuple


class Axis(NamedTuple):
    """How candidates are spaced: the search's arithmetic, as data."""

    #: The next candidate above a valid value.
    grow: Callable[[float], float]
    #: The next candidate below an invalid value.
    shrink: Callable[[float], float]
    #: A candidate between a valid ``lo`` and an invalid ``hi``.
    mid: Callable[[float, float], float]
    #: Whether ``[lo, hi]`` is tight enough to stop bisecting.
    done: Callable[[float, float], bool]


def geometric(factor: float, tolerance: float) -> Axis:
    """Rates: bracket by ``factor``, bisect on the geometric mean until
    ``hi / lo`` is within ``1 + tolerance``."""
    return Axis(lambda x: x * factor, lambda x: x / factor,
                lambda lo, hi: math.sqrt(lo * hi),
                lambda lo, hi: hi / lo <= 1.0 + tolerance)


def linear(resolution: float) -> Axis:
    """Rates on an absolute grid: step and stop at ``resolution``."""
    return Axis(lambda x: x + resolution, lambda x: x - resolution,
                lambda lo, hi: (lo + hi) / 2.0,
                lambda lo, hi: hi - lo <= resolution)


#: Counts: double, halve, and bisect down to adjacent integers.
INTEGER = Axis(lambda n: n * 2, lambda n: n // 2,
               lambda lo, hi: (lo + hi) // 2,
               lambda lo, hi: hi - lo <= 1)


class Found(NamedTuple):
    """How a search ended."""

    #: The largest value probed valid; ``None`` when nothing was, down
    #: to the floor.
    value: Optional[float]
    #: What the probe returned at ``value``.
    outcome: Any
    #: No invalid value was seen above ``value``: it is the ceiling or
    #: the given ``hi``, or the budget ran out while still growing.
    open: bool
    #: Every ``(value, valid)`` probed, in order - the verdict only, so
    #: a trail of runs does not keep each run's log alive.
    trail: List[Tuple[float, bool]]


def max_valid(
    probe: Callable[[float], Any],
    lo: float,
    axis: Axis,
    *,
    hi: Optional[float] = None,
    floor: Optional[float] = None,
    ceiling: Optional[float] = None,
    max_probes: float = math.inf,
) -> Found:
    """Search from ``lo`` for the largest value ``probe`` accepts, given
    that it accepts everything up to some capacity and nothing above.

    An invalid ``lo`` shrinks toward ``floor`` (default: ``lo`` itself,
    so nothing below it is tried).  A valid one is bracketed by ``hi``
    if given, else by growing - never past ``ceiling``, which is probed
    itself when the next step would jump over it.  The bracket is then
    bisected until the axis calls it tight.  At most ``max_probes``
    probes are made, and no value is probed twice.
    """
    trail: List[Tuple[float, bool]] = []

    def run(value):
        outcome = probe(value)
        trail.append((value, bool(outcome)))
        return outcome

    best = run(lo)
    if not best:
        hi = lo
        if floor is None:
            floor = lo
        while len(trail) < max_probes and (lo := axis.shrink(hi)) >= floor:
            best = run(lo)
            if best:
                break
            hi = lo
        else:
            return Found(None, None, False, trail)
    else:
        while True:
            candidate = axis.grow(lo) if hi is None else hi
            if ceiling is not None and candidate > ceiling:
                candidate = ceiling
            if len(trail) >= max_probes or candidate <= lo:  # lo is the top
                return Found(lo, best, True, trail)
            outcome = run(candidate)
            if not outcome:
                hi = candidate
                break
            lo, best = candidate, outcome
    while len(trail) < max_probes and not axis.done(lo, hi):
        candidate = axis.mid(lo, hi)
        outcome = run(candidate)
        if outcome:
            lo, best = candidate, outcome
        else:
            hi = candidate
    return Found(lo, best, False, trail)
