"""One range check for every numeric setting.

A LoadGen run is driven by settings that are data (the paper's
section IV-B), so its verdict is only as trustworthy as the settings'
validation.  Every constructor checks each numeric setting with one
:func:`check_range` call against one of the intervals below, and
``tests/test_range_checks.py`` fails on a hand-written range check.

NaN lies in no interval, and infinity only in one whose upper end is
written as ``inf`` and closed: a setting where infinity means something
(a permanent outage) says so in its interval.  This module imports only
``math`` and ``typing``, so the ``repro.metrics`` leaf may use it too.
"""

from math import inf
from typing import NamedTuple


class Interval(NamedTuple):
    """``low``..``high``, each end open or closed, and how a rejection
    message words it (``"<name> must be <phrase>, got <value>"``)."""

    low: float
    high: float
    low_closed: bool
    high_closed: bool
    phrase: str


POSITIVE = Interval(0, inf, False, False, "positive")
NON_NEGATIVE = Interval(0, inf, True, False, ">= 0")
AT_LEAST_ONE = Interval(1, inf, True, False, ">= 1")
AT_LEAST_TWO = Interval(2, inf, True, False, ">= 2")
ABOVE_ONE = Interval(1, inf, False, False, "> 1")
UNIT = Interval(0, 1, True, True, "in [0, 1]")
OPEN_UNIT = Interval(0, 1, False, False, "in (0, 1)")
FRACTION = Interval(0, 1, False, True, "in (0, 1]")
FINITE = Interval(-inf, inf, False, False, "finite")
#: A duration for which ``inf`` means "forever".
DURATION_OR_FOREVER = Interval(0, inf, True, True, ">= 0")


def check_range(name: str, value, interval: Interval):
    """Return ``value`` if it lies in ``interval``; else raise
    ``ValueError`` naming ``name``.  Comparisons only, so NaN (which
    compares false with everything) is always refused."""
    low, high, low_closed, high_closed, phrase = interval
    if ((low <= value if low_closed else low < value)
            and (value <= high if high_closed else value < high)):
        return value
    raise ValueError(f"{name} must be {phrase}, got {value}")
