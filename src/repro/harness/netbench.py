"""Harness pieces for Network-division runs.

Both wires are built from a ``StackSpec`` (``repro.harness.stack``):
a ``NetworkBackend`` is a client of a real server and runs on the wall
clock, a ``channel`` is the deterministic twin on the virtual clock.
What is left here is the rest of a real run:

* :func:`run_over_localhost` - the server's lifecycle: an
  :class:`~repro.network.server.InferenceServer` on a loopback socket,
  started for one run of a network stack and torn down after it.  It
  returns a :class:`NetworkRunResult` bundling the LoadGen verdict with
  the transport-side accounting, so callers can separate "the SUT is
  too slow" from "the wire ate the latency budget".
* :class:`SyntheticQSL` and :func:`parallel_echo_backend`, the library
  and the process-parallel backend such runs use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from ..core.config import TestSettings
from ..core.loadgen import LoadGenResult
from ..core.sut import QuerySampleLibrary, SystemUnderTest
from ..core.trace import TransportTiming
from ..metrics import MetricsRegistry
from ..network.client import NetworkStats


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

    from ..parallel import ParallelSUT

    def echo_factory():
        def predict(samples):
            if compute_time > 0.0:
                _time.sleep(compute_time)
            return list(samples)
        return predict

    return ParallelSUT(
        echo_factory, SyntheticQSL(), workers=workers, seed=seed)


@dataclass
class NetworkRunResult:
    """A LoadGen verdict plus the wire's side of the story."""

    result: LoadGenResult
    #: Client-adapter counters (retries, drops, bytes...).
    client_stats: Optional[NetworkStats] = None
    #: The server's final STATS payload.
    server_stats: Optional[Dict[str, object]] = None
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
    query_timeout: float = 2.0,
    registry: Optional[MetricsRegistry] = None,
) -> NetworkRunResult:
    """One measured run with a real TCP hop on loopback: a
    ``NetworkBackend`` stack against a server on it.

    The server is started for the duration of the run and torn down
    afterwards (drain first), whatever the verdict.

    ``registry`` collects both sides' telemetry in one place: the
    LoadGen's ``loadgen_*`` series and the server's ``server_*`` series
    (queue depth, batch sizes, worker utilization; see
    ``docs/observability.md``).
    """
    # Imported here: the stack module pulls in every wrapper layer, and
    # the server its queue and workers, which importers of this module
    # (the paper sweep) never use.
    from ..network.server import InferenceServer
    from .stack import NetworkBackend, StackSpec, build

    server = InferenceServer(backend, registry=registry)
    stack = build(StackSpec(NetworkBackend(
        server.start(), query_timeout=query_timeout)), settings.seed)
    client = stack.channel
    try:
        result = stack.run(qsl, settings, registry=registry)
        stack.close()
        return NetworkRunResult(
            result=result,
            client_stats=client.stats,
            server_stats=client.server_stats,
            transport=dict(client.transport_records),
        )
    finally:
        stack.close()
        server.stop()


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
