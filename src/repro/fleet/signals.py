"""Pluggable load signals for the :class:`~repro.fleet.autoscaler.Autoscaler`.

The autoscaler used to read exactly one in-process number - outstanding
queries per available replica.  Real fleets scale on *telemetry*: the
``server_*`` / ``parallel_*`` / ``prefix_cache_*`` series their replicas
already export.  A :class:`SignalSource` closes that gap: it is sampled
once per autoscaler tick on the run's (virtual) event loop and reduces
whatever it watches to one float for the watermark comparison.

Two stock sources:

* :class:`BacklogSignal` - the classic in-process backlog
  (``total_outstanding / max(1, available)``), the default; zero setup
  and exactly the pre-SignalSource behavior.
* :class:`SeriesSignal` - reads one **live metric family** from a
  :class:`~repro.metrics.MetricsRegistry`, summing every labeled child
  (so ``prefix_cache_misses_total{replica=...}`` aggregates across the
  fleet), over a sliding window of recent ticks.  ``mode="rate"``
  differences a counter into events/s; ``mode="level"`` averages a
  gauge.  ``per_available_replica`` divides by the live replica count so
  the watermarks stay per-replica quantities as the fleet resizes.

Both are pure functions of run state sampled at deterministic virtual
times, so the autoscaler's :class:`~repro.fleet.autoscaler.ScalingDecision`
trace stays bit-identical across same-seed runs - the contract the
benchmark suite asserts.  See ``docs/fleet.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..bounds import AT_LEAST_ONE, check_range
from ..metrics import MetricsRegistry

#: Default number of ticks a :class:`SeriesSignal` window spans.
DEFAULT_SIGNAL_WINDOW = 8


class SignalSource:
    """One load signal, sampled once per autoscaler tick."""

    #: Human-readable name, recorded in reports and reprs.
    name = "signal"

    def bind(self, replica_set) -> None:
        """Attach to the fleet being scaled (called once, at
        construction of the autoscaler)."""
        self.replica_set = replica_set

    def reset(self) -> None:
        """Forget windowed state; called at the start of every run."""

    def sample(self, now: float) -> float:
        """Record one observation at virtual time ``now`` and return the
        current signal value."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BacklogSignal(SignalSource):
    """In-process backlog: outstanding queries per available replica.

    The pre-SignalSource autoscaler behavior, bit for bit.  The
    ``max(1, available)`` clamp keeps the signal finite when every
    replica is down or draining - outstanding work then reads as the
    backlog of a one-replica fleet, which is exactly what should push
    the scaler to bring capacity back.
    """

    name = "backlog"

    def sample(self, now: float) -> float:
        replica_set = self.replica_set
        available = len(replica_set.available_replicas)
        return replica_set.total_outstanding / max(1, available)


class SeriesSignal(SignalSource):
    """Windowed reader of one live metric family in a registry.

    Per tick the family's children are summed into one observation
    (labels aggregate: a per-replica family contributes the whole
    fleet's number) and appended to a sliding window of the last
    ``window`` ticks:

    * ``mode="rate"`` - (newest - oldest) / elapsed across the window;
      the right reduction for monotone counters
      (``prefix_cache_tokens_missed_total`` -> missed tokens/s).
    * ``mode="level"`` - mean of the windowed observations; the right
      reduction for gauges (``fleet_outstanding_queries``,
      ``server_queue_depth``), smoothing single-tick spikes.

    A family that has not been registered (yet) reads as 0.0 - scaling
    on a series that never lights up simply holds.
    """

    name = "series"

    def __init__(
        self,
        registry: MetricsRegistry,
        family: str,
        *,
        mode: str = "rate",
        window: int = DEFAULT_SIGNAL_WINDOW,
        per_available_replica: bool = False,
    ) -> None:
        if mode not in ("rate", "level"):
            raise ValueError(
                f"mode must be 'rate' or 'level', got {mode!r}")
        check_range("window", window, AT_LEAST_ONE)
        self.registry = registry
        self.family = family
        self.mode = mode
        self.window = window
        self.per_available_replica = per_available_replica
        self.name = f"{family}:{mode}"
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=window)

    def reset(self) -> None:
        self._samples.clear()

    def _read_total(self) -> float:
        family = self.registry.get(self.family)
        if family is None:
            return 0.0
        if not family.label_names:
            # Unlabeled families (callback gauges included) materialize
            # their single child lazily; read through the family.
            return float(family.value)
        return float(sum(
            child.value for _, child in family.series()))

    def sample(self, now: float) -> float:
        self._samples.append((now, self._read_total()))
        (t0, v0), (t1, v1) = self._samples[0], self._samples[-1]
        if self.mode == "rate":
            elapsed = t1 - t0
            value = (v1 - v0) / elapsed if elapsed > 0 else 0.0
        else:
            value = sum(v for _, v in self._samples) / len(self._samples)
        if self.per_available_replica:
            value /= max(1, len(self.replica_set.available_replicas))
        return value


def make_signal(signal: Optional[object]) -> SignalSource:
    """Resolve a signal argument: instance or ``None`` (default backlog)."""
    if signal is None:
        return BacklogSignal()
    if isinstance(signal, SignalSource):
        return signal
    raise TypeError(
        f"signal must be a SignalSource or None; got {signal!r}")
