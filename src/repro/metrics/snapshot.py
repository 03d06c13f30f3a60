"""Periodic sampling of a registry into an ordered series of snapshots.

A :class:`Snapshot` flattens a :class:`~repro.metrics.registry.
MetricsRegistry` into ``{series key: float}`` at one instant: counters
and gauges verbatim, histograms as ``_count`` / ``_sum`` plus one entry
per quantile of :data:`DEFAULT_QUANTILES` (``..._p50``, ``..._p99``).
Flat floats are deliberate - snapshots are what the Chrome-trace
counter track, the JSON export, and the determinism tests consume, and
all three want plain comparable numbers.

The :class:`SnapshotSampler` drives capture off the run's own
:class:`~repro.core.events.EventLoop`, so the *same* code samples a
virtual-clock run (snapshot times are exact multiples of the period,
bit-for-bit reproducible) and a wall-clock network run (snapshots land
on real time).  The sampler never reads a wall clock itself - the
timestamp is the loop's clock reading, which is the whole determinism
story: re-running a seeded virtual run yields an identical snapshot
series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bounds import POSITIVE, check_range
from .registry import MetricsRegistry

# NOTE: this module deliberately imports nothing from repro.core.  The
# sampler duck-types its loop (anything with ``now`` and
# ``schedule_after`` works, in particular repro.core.events.EventLoop),
# which keeps repro.metrics a leaf package every layer may depend on.

__all__ = ["Snapshot", "SnapshotSampler", "capture"]

#: Quantiles captured per histogram, as (suffix, q) pairs.
DEFAULT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999),
)
_SUFFIXES, _QS = zip(*DEFAULT_QUANTILES)


@dataclass(frozen=True)
class Snapshot:
    """One registry reading: a timestamp plus flat series values."""

    #: The owning loop's clock at capture (virtual or wall seconds).
    time: float
    #: ``series key -> value``; histogram series expand to ``_count``,
    #: ``_sum`` and one ``_pXX`` entry per captured quantile.
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, key: str, default: float = 0.0) -> float:
        return self.values.get(key, default)


def capture(registry: MetricsRegistry, time: float) -> Snapshot:
    """Flatten ``registry`` into a :class:`Snapshot` stamped ``time``.

    Walks each family's ``(series key, child)`` pairs - keys were built
    when the children were - and asks the family, not each child, what
    kind of series it holds.
    """
    values: Dict[str, float] = {}
    for family in registry.collect():
        if family.kind == "histogram":
            for key, child in family.keyed:
                values[f"{key}_count"] = float(child.count)
                values[f"{key}_sum"] = child.sum
                for suffix, estimate in zip(_SUFFIXES, child.percentiles(_QS)):
                    values[f"{key}_{suffix}"] = estimate
        else:  # counters and gauges
            for key, child in family.keyed:
                values[key] = child.value
    return Snapshot(time=time, values=values)


class SnapshotSampler:
    """Capture a registry every ``period`` seconds of loop time.

    The sampler schedules itself on the loop like any other event, so
    under a virtual clock it costs nothing between ticks and its
    timestamps are exact.  ``keep_going`` (when given) is consulted
    after each capture: once it returns False the sampler takes that
    tick as its final snapshot and stops rescheduling, which is how a
    run-scoped sampler avoids keeping the loop alive forever.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        period: float,
    ) -> None:
        check_range("period", period, POSITIVE)
        self.registry = registry
        self.loop = None  # set by start()
        self.period = period
        self.snapshots: List[Snapshot] = []
        self._handle = None  # the pending tick's cancellable handle
        self._keep_going: Optional[Callable[[], bool]] = None
        self._running = False

    def start(self, loop,
              keep_going: Optional[Callable[[], bool]] = None) -> None:
        """Take an immediate baseline snapshot and begin ticking on
        ``loop`` (the ``RunService`` shape of ``repro.core.loadgen``)."""
        if self._running:
            raise RuntimeError("sampler already started")
        self.loop = loop
        self._running = True
        self._keep_going = keep_going
        self._capture()
        self._schedule()

    def stop(self) -> None:
        """Cancel the pending tick (snapshots taken so far are kept)."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def sample_now(self) -> Snapshot:
        """Capture one extra snapshot immediately (e.g. at run end)."""
        return self._capture()

    # -- internals -------------------------------------------------------------

    def _capture(self) -> Snapshot:
        snap = capture(self.registry, self.loop.now)
        self.snapshots.append(snap)
        return snap

    def _schedule(self) -> None:
        self._handle = self.loop.schedule_after(self.period, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._capture()
        if self._keep_going is not None and not self._keep_going():
            self._running = False
            self._handle = None
            return
        self._schedule()
