"""Scheduled arrival-rate bursts: the flash-crowd fault plan.

Outages and brownouts degrade the *supply* side of a serving system;
this module degrades *demand*.  A :class:`BurstPlan` is a set of
non-overlapping :class:`BurstWindow` spans during which the Server
scenario's Poisson arrival rate is multiplied - the classic flash crowd
(multiplier > 1) or a traffic trough (multiplier < 1).

The plan itself is ergonomics only: the LoadGen core cannot import this
package, so :meth:`BurstPlan.as_settings` lowers the plan to the plain
``(start, duration, multiplier)`` tuples that
``TestSettings.server_rate_bursts`` carries (plain data also keeps the
run journal's pickled settings self-contained).  The
:class:`~repro.core.scenarios.ServerDriver` applies the multiplier to
its exponential inter-arrival draws inside the windows, so a burst is
exactly as deterministic per seed as the base arrival process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from ..core.config import check_rate_bursts


class BurstWindow(NamedTuple):
    """One span of modified arrival rate on the run clock."""

    #: Window opens at this run time, seconds.
    start: float
    #: Window length, seconds.
    duration: float
    #: Arrival-rate multiplier inside the window.
    multiplier: float


@dataclass(frozen=True)
class BurstPlan:
    """A deterministic schedule of arrival-rate windows."""

    windows: Tuple[BurstWindow, ...]

    def __post_init__(self) -> None:
        # TestSettings' own check: a bad plan fails at construction,
        # next to the mistake, with the message the settings would give.
        check_rate_bursts(self.windows)

    @classmethod
    def flash_crowd(cls, start: float, duration: float,
                    multiplier: float = 4.0) -> "BurstPlan":
        """The canonical single-spike plan."""
        return cls(windows=(BurstWindow(start, duration, multiplier),))

    def multiplier(self, time: float) -> float:
        """The arrival-rate multiplier in force at run time ``time``."""
        for window in self.windows:
            if window.start <= time < window.start + window.duration:
                return window.multiplier
        return 1.0

    def as_settings(self) -> Tuple[Tuple[float, float, float], ...]:
        """Lower to ``TestSettings.server_rate_bursts`` plain data."""
        return tuple(
            (w.start, w.duration, w.multiplier) for w in self.windows)
