"""One builder for every SUT stack the CLI and the harnesses assemble.

A stack here is always the same layers in the same order, each optional
except the first::

    backend (echo | simulated device | network client) -> stream
      -> simulated channel -> outage -> retry -> self-healing standby
      -> chaos valve -> prefix cache -> fleet of N such chains

plus the run services that ride with a fleet (chaos orchestrator,
outlier detector, autoscaler).  :class:`StackSpec` says which layers are
present as plain frozen data - what the LoadGen's settings are to the
traffic, the spec is to the SUT (paper Section IV-B: configured, not
coded) - and :func:`build` turns a spec plus one seed into a
:class:`Stack`: the SUT, the ordered services, the handles reports read
afterwards, and :meth:`Stack.run`, which runs it on the clock its
backend needs.

Custom backends (a real model, a process pool) are still wired by hand
from the same pieces; ``docs/fleet.md`` and ``docs/chaos.md`` show how.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

from ..core.config import TestSettings
from ..core.events import WallClock
from ..core.loadgen import LoadGenResult, RunService, run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest
from ..durability import SelfHealingSUT
from ..faults import ChaosOrchestrator, ChaosSchedule, OutageSUT
from ..faults.resilient import ResilientSUT, RetryPolicy
from ..fleet import Autoscaler, OutlierDetector, ReplicaSet, SeriesSignal
from ..metrics import MetricsRegistry
from ..network.client import NetworkSUT
from ..network.simulated import ChannelModel, SimulatedChannelSUT
from ..sessions import (
    CacheStats,
    PrefixCacheSUT,
    ReplayGraph,
    audit_cache_events,
    audit_replica_caches,
    per_replica_cache_factory,
)
from ..streaming import StreamModel, StreamingSUT
from ..sut.device import DeviceModel
from ..sut.echo import EchoSUT
from ..sut.simulated import SimulatedSUT, WorkloadProfile

#: What ``FleetSpec.autoscale`` may name: the live metric family behind
#: the signal and how its :class:`~repro.fleet.SeriesSignal` windows it
#: (``None``: the autoscaler's stock in-process backlog).
SCALE_SIGNALS = {
    "backlog": None,
    "outstanding-series": ("fleet_outstanding_queries",
                           {"mode": "level", "window": 4}),
    "cache-miss-rate": ("prefix_cache_tokens_missed_total",
                        {"mode": "rate"}),
}


@dataclass(frozen=True)
class EchoBackend:
    """:class:`~repro.sut.echo.EchoSUT`: fixed service time, optionally
    a finite number of serving slots."""

    latency: float = 0.0
    concurrency: Optional[int] = None


@dataclass(frozen=True)
class DeviceBackend:
    """:class:`~repro.sut.simulated.SimulatedSUT`: an analytic device
    serving one workload profile."""

    device: DeviceModel
    workload: WorkloadProfile
    batch_window: float = 0.0


@dataclass(frozen=True)
class NetworkBackend:
    """:class:`~repro.network.client.NetworkSUT`: a client of the
    inference server at ``address``; its stack runs on the wall clock."""

    address: Union[str, Tuple[str, int]]
    connections: int = 1
    query_timeout: float = 2.0


@dataclass(frozen=True)
class FleetSpec:
    """N copies of the chain behind the balancer, and their services."""

    replicas: int
    max_replicas: int
    zones: int = 1
    balancer: str = "least-outstanding"
    #: ``None``: the :class:`~repro.fleet.ReplicaSet` default.
    attempt_timeout: Optional[float] = None
    #: Fault windows to drive against the fleet while it serves; every
    #: replica then gets a chaos valve.
    chaos: Optional[ChaosSchedule] = None
    #: Gray-failure outlier detector (``docs/chaos.md``).
    detector: bool = False
    #: A key of :data:`SCALE_SIGNALS`, or ``None`` for a fixed-size fleet.
    autoscale: Optional[str] = None


@dataclass(frozen=True)
class StackSpec:
    """Which layers a stack has, bottom to top.  Seeds are not part of
    it: :func:`build` hands its one seed to every seeded layer."""

    backend: Union[EchoBackend, DeviceBackend, NetworkBackend] = EchoBackend()
    #: Stream each answer as token chunks (``docs/streaming.md``).
    stream: Optional[StreamModel] = None
    #: Put a simulated wire in front of the backend.
    channel: Optional[ChannelModel] = None
    #: ``(start, duration)`` of a blackout of everything below, seconds.
    outage: Optional[Tuple[float, float]] = None
    retry: Optional[RetryPolicy] = None
    #: Circuit breaker failing over to this local standby.
    standby: Optional[EchoBackend] = None
    #: Prefix-cache capacity; per replica under a fleet.
    cache_tokens: Optional[int] = None
    fleet: Optional[FleetSpec] = None


@dataclass
class Stack:
    """A built stack: what a run needs and what reports read."""

    sut: SystemUnderTest
    #: What was built, layer by layer.
    spec: StackSpec
    #: Started with every run: orchestrator, detector, autoscaler.
    services: List[RunService] = field(default_factory=list)
    registry: Optional[MetricsRegistry] = None
    orchestrator: Optional[ChaosOrchestrator] = None
    detector: Optional[OutlierDetector] = None
    #: The wire of a single-chain stack (stats, transport records): its
    #: simulated channel, else its network client.
    channel: Optional[Union[SimulatedChannelSUT, NetworkSUT]] = None

    def run(self, qsl: QuerySampleLibrary, settings: TestSettings,
            **kw) -> LoadGenResult:
        """``run_benchmark(..., **kw)`` over this stack with its services,
        on a wall clock for a network client, else the virtual clock."""
        clock = (WallClock() if isinstance(self.spec.backend, NetworkBackend)
                 else None)
        return run_benchmark(self.sut, qsl, settings, clock=clock,
                             services=self.services, **kw)

    def close(self) -> None:
        self.sut.close()

    def cache_audit(
        self, graph: ReplayGraph,
    ) -> Tuple[CacheStats, List[str], int]:
        """Replay every prefix cache's hit trail against ``graph``:
        the merged counters, the discrepancies found (none: the trails
        are clean) and the number of trail events replayed."""
        caches = getattr(self.sut, "caches", None)
        if caches:
            trails = audit_replica_caches(caches, graph)
            return (CacheStats.merged([c.stats for c in caches.values()]),
                    [p for trail in trails.values() for p in trail],
                    sum(len(c.events) for c in caches.values()))
        cache = self.sut
        return (cache.stats,
                audit_cache_events(cache.events, graph, cache.capacity_tokens),
                len(cache.events))


def _chain(
    spec: StackSpec, seed: int, registry: Optional[MetricsRegistry],
    name: Optional[str] = None,
) -> Tuple[SystemUnderTest, Optional[Union[SimulatedChannelSUT, NetworkSUT]]]:
    """Backend through self-healing standby - one replica's worth - and
    the wire in it, if any."""
    backend, channel = spec.backend, None
    if isinstance(backend, DeviceBackend):
        sut = SimulatedSUT(backend.device, backend.workload,
                           batch_window=backend.batch_window)
    elif isinstance(backend, NetworkBackend):
        sut = channel = NetworkSUT(
            backend.address, connections=backend.connections,
            query_timeout=backend.query_timeout, name=name)
    else:
        sut = EchoSUT(latency=backend.latency, name=name,
                      concurrency=backend.concurrency)
    if spec.stream is not None:
        sut = StreamingSUT(sut, model=replace(spec.stream, seed=seed))
    if spec.channel is not None:
        sut = channel = SimulatedChannelSUT(
            sut, replace(spec.channel, seed=seed))
    if spec.outage is not None:
        sut = OutageSUT(sut, *spec.outage)
    if spec.retry is not None:
        sut = ResilientSUT(sut, spec.retry, registry=registry, seed=seed)
    if spec.standby is not None:
        standby = EchoSUT(latency=spec.standby.latency, name="standby",
                          concurrency=spec.standby.concurrency)
        sut = SelfHealingSUT(sut, standby, registry=registry)
    return sut, channel


def build(spec: StackSpec, seed: int,
          registry: Optional[MetricsRegistry] = None) -> Stack:
    """Assemble ``spec`` into a fresh :class:`Stack`.

    ``seed`` reaches every seeded layer (stream plan, channel, retry
    jitter, balancer, detector probes).  ``registry`` goes to every
    layer that exports telemetry; handing it to :meth:`Stack.run` as
    well is the caller's choice.
    """
    fleet = spec.fleet
    if fleet is None:
        sut, channel = _chain(spec, seed, registry)
        if spec.cache_tokens is not None:
            sut = PrefixCacheSUT(sut, capacity_tokens=spec.cache_tokens,
                                 registry=registry)
        return Stack(sut, spec, registry=registry, channel=channel)

    # Only a chain with a layer that exports (retry, standby) gets the
    # registry: the factory that builds it would otherwise hold the
    # registry for nothing, and the registry's views read the fleet,
    # which holds the factory.
    exports = spec.retry is not None or spec.standby is not None
    chain_registry = registry if exports else None

    def factory(index: int) -> SystemUnderTest:
        return _chain(spec, seed, chain_registry, name=f"replica-{index}")[0]

    orchestrator = detector = None
    if fleet.chaos is not None:
        orchestrator = ChaosOrchestrator(fleet.chaos, registry=registry)
        factory = orchestrator.wrap_factory(factory)
    timeout = ({} if fleet.attempt_timeout is None
               else {"attempt_timeout": fleet.attempt_timeout})
    replica_set = ReplicaSet(
        factory,
        initial_replicas=fleet.replicas,
        max_replicas=fleet.max_replicas,
        policy=fleet.balancer,
        zones=fleet.zones,
        seed=seed,
        registry=registry,
        cache_factory=(per_replica_cache_factory(
            capacity_tokens=spec.cache_tokens, registry=registry)
            if spec.cache_tokens is not None else None),
        **timeout,
    )
    # The order the services must start in (it is part of every
    # same-seed digest): orchestrator, detector, autoscaler.
    services: List[RunService] = []
    if orchestrator is not None:
        orchestrator.bind(replica_set)
        services.append(orchestrator)
    if fleet.detector:
        detector = OutlierDetector(replica_set, seed=seed, registry=registry)
        services.append(detector)
    if fleet.autoscale is not None:
        signal = series = SCALE_SIGNALS[fleet.autoscale]
        if series is not None:
            signal = SeriesSignal(registry, series[0],
                                  per_available_replica=True, **series[1])
        services.append(
            Autoscaler(replica_set, signal=signal, registry=registry))
    return Stack(replica_set, spec, services, registry, orchestrator,
                 detector)
