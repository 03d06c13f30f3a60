"""Harness entry points for Network-division runs.

Two symmetric ways to put a wire between the LoadGen and a backend:

* :func:`run_over_localhost` - the real thing: an
  :class:`~repro.network.server.InferenceServer` on a loopback socket, a
  :class:`~repro.network.client.NetworkSUT` adapter, and the LoadGen
  running on a :class:`~repro.core.events.WallClock` because kernel
  socket time is the quantity under test.
* :func:`run_over_simulated_channel` - the deterministic twin: the same
  backend behind a :class:`~repro.network.simulated.SimulatedChannelSUT`
  on the virtual clock, for reproducible network-sensitivity sweeps.

Both return a :class:`NetworkRunResult` bundling the LoadGen verdict
with the transport-side accounting, so callers can separate "the SUT is
too slow" from "the wire ate the latency budget".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from ..core.config import TestSettings
from ..core.events import WallClock
from ..core.loadgen import LoadGenResult, run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest
from ..core.trace import TransportTiming
from ..metrics import MetricsRegistry
from ..network.client import NetworkStats, NetworkSUT
from ..network.server import InferenceServer, ServerConfig
from ..network.simulated import ChannelModel, ChannelStats, SimulatedChannelSUT


class SyntheticQSL:
    """An index-only sample library for plumbing runs and examples.

    ``get_sample`` returns the index itself, which pairs with
    :class:`~repro.sut.echo.EchoSUT` echoing it back: end-to-end payload
    correctness is checkable without any real data set on disk.
    """

    def __init__(self, total: int = 8192, performance: int = 1024,
                 name: str = "synthetic") -> None:
        self.name = name
        self.total_sample_count = total
        self.performance_sample_count = performance

    def load_samples(self, indices) -> None:
        pass

    def unload_samples(self, indices) -> None:
        pass

    def get_sample(self, index: int) -> object:
        return index


def parallel_echo_backend(
    workers: int = 2,
    seed: int = 0,
    compute_time: float = 0.0,
    max_batch: int = 8,
    qsl: Optional[QuerySampleLibrary] = None,
) -> SystemUnderTest:
    """A process-parallel echo backend for network runs.

    Wire-compatible with :class:`~repro.sut.echo.EchoSUT` (each sample
    is answered with its own library index, via :class:`SyntheticQSL`),
    but the answers are computed by a ``repro.parallel`` worker pool --
    the configuration ``repro serve --backend parallel`` hosts.
    ``compute_time`` is slept inside the worker per dispatched shard,
    standing in for real model latency.

    The returned SUT owns OS resources (processes, shared memory); pass
    it to :class:`~repro.network.server.InferenceServer` as an instance
    (one shared pool) and it is released by ``server.stop()``, or call
    ``close()`` yourself after in-process use.
    """
    import time as _time

    from ..parallel import BatchingPolicy, ParallelSUT

    qsl = qsl if qsl is not None else SyntheticQSL()

    def echo_factory():
        def predict(samples):
            if compute_time > 0.0:
                _time.sleep(compute_time)
            return list(samples)
        return predict

    return ParallelSUT(
        echo_factory, qsl, workers=workers, seed=seed,
        policy=BatchingPolicy(max_batch_size=max_batch, max_wait=0.0))


@dataclass
class NetworkRunResult:
    """A LoadGen verdict plus the wire's side of the story."""

    result: LoadGenResult
    #: Client-adapter counters (retries, drops, bytes...).
    client_stats: Optional[NetworkStats] = None
    #: The server's final STATS payload (real runs only).
    server_stats: Optional[Dict[str, object]] = None
    #: Channel counters (simulated runs only).
    channel_stats: Optional[ChannelStats] = None
    #: Per-query wire timings, keyed by query id.
    transport: Dict[int, TransportTiming] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.result.valid

    def mean_network_time(self) -> float:
        """Mean wire share of the round trip, seconds (0 if untracked)."""
        if not self.transport:
            return 0.0
        times = [t.network_time for t in self.transport.values()]
        return sum(times) / len(times)

    def mean_round_trip(self) -> float:
        """Mean client-observed round trip, seconds (0 if untracked)."""
        if not self.transport:
            return 0.0
        times = [t.round_trip for t in self.transport.values()]
        return sum(times) / len(times)


def run_over_localhost(
    backend: Union[SystemUnderTest, Callable[[], SystemUnderTest]],
    qsl: QuerySampleLibrary,
    settings: TestSettings,
    server_config: Optional[ServerConfig] = None,
    connections: int = 1,
    query_timeout: float = 2.0,
    max_attempts: int = 2,
    registry: Optional[MetricsRegistry] = None,
    snapshot_period: Optional[float] = None,
) -> NetworkRunResult:
    """One measured run with a real TCP hop on loopback.

    The server is started for the duration of the run and torn down
    afterwards (drain first), whatever the verdict.

    ``registry`` collects both sides' telemetry in one place: the
    LoadGen's ``loadgen_*`` series and the server's ``server_*`` series
    (queue depth, batch sizes, worker utilization); ``snapshot_period``
    additionally samples it on the run's wall clock (see
    ``docs/observability.md``).
    """
    server = InferenceServer(backend, server_config, registry=registry)
    host, port = server.start()
    sut = NetworkSUT(
        (host, port),
        connections=connections,
        query_timeout=query_timeout,
        max_attempts=max_attempts,
    )
    try:
        result = run_benchmark(sut, qsl, settings, clock=WallClock(),
                               registry=registry,
                               snapshot_period=snapshot_period)
        sut.close()
        return NetworkRunResult(
            result=result,
            client_stats=sut.stats,
            server_stats=sut.server_stats,
            transport=dict(sut.transport_records),
        )
    finally:
        sut.close()
        server.stop()


def run_over_simulated_channel(
    backend: SystemUnderTest,
    qsl: QuerySampleLibrary,
    settings: TestSettings,
    model: Optional[ChannelModel] = None,
    registry: Optional[MetricsRegistry] = None,
    snapshot_period: Optional[float] = None,
) -> NetworkRunResult:
    """The deterministic twin: same run shape, virtual-time channel.

    With ``registry``/``snapshot_period`` the run emits live telemetry
    exactly like :func:`run_over_localhost`, except on the virtual
    clock - so the snapshot series is bit-for-bit reproducible.
    """
    channel = SimulatedChannelSUT(backend, model)
    result = run_benchmark(channel, qsl, settings,
                           registry=registry,
                           snapshot_period=snapshot_period)
    return NetworkRunResult(
        result=result,
        channel_stats=channel.stats,
        transport=dict(channel.transport_records),
    )


def latency_overhead(
    network: NetworkRunResult, inprocess: LoadGenResult
) -> Dict[str, float]:
    """Per-query cost of the wire: networked minus in-process latency.

    Both runs should use the same backend and scenario settings; the
    difference in mean/P90 latency is then the serving stack's overhead
    (protocol encode/decode, sockets, queueing at the server edge).
    """
    net_metrics = network.result.metrics
    base_metrics = inprocess.metrics
    return {
        "mean_overhead_s": net_metrics.latency_mean - base_metrics.latency_mean,
        "p90_overhead_s": net_metrics.latency_p90 - base_metrics.latency_p90,
        "network_mean_s": net_metrics.latency_mean,
        "inprocess_mean_s": base_metrics.latency_mean,
        "wire_share_s": network.mean_network_time(),
    }
