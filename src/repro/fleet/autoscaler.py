"""Deterministic autoscaler clocked by the run's event loop.

The :class:`Autoscaler` is a :class:`~repro.core.loadgen.RunService`: it
ticks every ``period`` seconds of run time, samples one pluggable load
signal (:mod:`repro.fleet.signals` - the in-process backlog by default,
or any windowed live ``server_*``/``parallel_*``/``prefix_cache_*``
metric series via :class:`~repro.fleet.signals.SeriesSignal`) and
applies classic watermark hysteresis:

* signal ≥ ``high_watermark`` → grow by one replica;
* signal ≤ ``low_watermark`` → shrink by one (drain, never drop);
* in between, or within ``cooldown`` of the last action, hold.

The gap between the watermarks plus the cooldown is what prevents
flapping: a burst must push the per-replica backlog past the high mark
to trigger growth, and the fleet must be demonstrably idle before the
extra capacity is drained away.

Because the tick runs on the (virtual) event loop and every stock
signal is a pure function of run state sampled at deterministic times,
the full decision :attr:`~Autoscaler.trace` - one
:class:`ScalingDecision` per tick, holds included - is bit-identical
across same-seed runs *whatever the signal source*; the benchmark suite
asserts exactly that.  With a ``registry`` the ``autoscaler_*`` metric
families light up (see ``docs/observability.md``); the state machine is
drawn in ``docs/fleet.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

from ..bounds import NON_NEGATIVE, POSITIVE, check_range
from ..core.events import EventLoop
from ..core.loadgen import Ticker
from ..metrics import MetricsRegistry
from .replicaset import ReplicaSet
from .signals import SignalSource, make_signal


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Watermark-hysteresis tuning for :class:`Autoscaler`."""

    #: Seconds of run time between scaling decisions.
    period: float = 0.050
    #: Mean outstanding queries per replica that triggers growth.
    high_watermark: float = 4.0
    #: Mean outstanding queries per replica that triggers shrinkage.
    low_watermark: float = 1.0
    #: Minimum run-time between two scaling *actions* (holds are free).
    cooldown: float = 0.200

    def __post_init__(self) -> None:
        check_range("period", self.period, POSITIVE)
        check_range("low_watermark", self.low_watermark, NON_NEGATIVE)
        if self.high_watermark <= self.low_watermark:
            raise ValueError(
                "high_watermark must exceed low_watermark, got "
                f"{self.high_watermark} <= {self.low_watermark}")
        check_range("cooldown", self.cooldown, NON_NEGATIVE)


class ScalingDecision(NamedTuple):
    """One autoscaler tick: what it saw and what it did."""

    time: float
    signal: float
    action: str  # "up" | "down" | "hold"
    replicas_before: int
    replicas_after: int


class _AutoscalerInstruments:
    """Live ``autoscaler_*`` metric families."""

    __slots__ = ("actions", "signal", "replicas")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.actions = registry.counter(
            "autoscaler_actions_total",
            "Autoscaler decisions, by action taken",
            labels=("action",))
        self.signal = registry.gauge(
            "autoscaler_signal",
            "Outstanding queries per available replica at the last tick")
        self.replicas = registry.gauge(
            "autoscaler_replicas",
            "Available replicas after the last autoscaler tick")


class Autoscaler(Ticker):
    """Grow/shrink a :class:`ReplicaSet` from its live load signal."""

    def __init__(
        self,
        replica_set: ReplicaSet,
        policy: Optional[AutoscalerPolicy] = None,
        *,
        signal: Optional[SignalSource] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.replica_set = replica_set
        self.policy = policy if policy is not None else AutoscalerPolicy()
        self.period = self.policy.period
        #: The pluggable load signal sampled each tick; defaults to the
        #: in-process :class:`~repro.fleet.signals.BacklogSignal`.
        self.signal_source: SignalSource = make_signal(signal)
        self.signal_source.bind(replica_set)
        #: Every tick's :class:`ScalingDecision`, holds included - the
        #: determinism witness the benchmarks compare across runs.
        self.trace: List[ScalingDecision] = []
        self._m = (
            _AutoscalerInstruments(registry) if registry is not None
            else None
        )
        self._last_action_time = 0.0

    # -- RunService -------------------------------------------------------------

    def start(self, loop: EventLoop,
              keep_going: Callable[[], bool]) -> None:
        self.trace = []
        self.signal_source.reset()
        # A fresh run may act immediately: backdate the cooldown anchor.
        self._last_action_time = loop.now - self.policy.cooldown
        super().start(loop, keep_going)

    # -- decisions --------------------------------------------------------------

    def _tick(self) -> None:
        loop = self.loop
        now = loop.now
        signal = self.signal_source.sample(now)
        before = len(self.replica_set.available_replicas)
        action = "hold"
        if now - self._last_action_time >= self.policy.cooldown:
            if signal >= self.policy.high_watermark:
                if self.replica_set.scale_up():
                    action = "up"
                    self._last_action_time = now
            elif signal <= self.policy.low_watermark:
                if self.replica_set.scale_down():
                    action = "down"
                    self._last_action_time = now
        after = len(self.replica_set.available_replicas)
        self.trace.append(
            ScalingDecision(now, signal, action, before, after))
        if self._m:
            self._m.actions.labels(action=action).inc()
            self._m.signal.set(signal)
            self._m.replicas.set(float(after))
        if self.keep_going():
            self._timer = loop.schedule_after(self.period, self._tick)
