"""The one stack builder: layer order, services, seeds, handles."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.events import WallClock
from repro.faults import ChaosEvent, ChaosSchedule, RetryPolicy
from repro.harness import stack as stack_module
from repro.harness.netbench import SyntheticQSL
from repro.harness.stack import (
    EchoBackend,
    FleetSpec,
    NetworkBackend,
    StackSpec,
    build,
)
from repro.metrics import MetricsRegistry
from repro.network.simulated import ChannelModel
from repro.sessions import replay_graph_from_settings
from repro.streaming import StreamModel


def layers(sut):
    """Class names from the top of a single-chain stack to its backend."""
    names = []
    while sut is not None:
        names.append(type(sut).__name__)
        sut = getattr(sut, "inner", None) or getattr(sut, "primary", None)
    return names


def test_single_chain_layers_come_in_the_one_order():
    echo = EchoBackend(0.001)
    stack = build(StackSpec(
        backend=echo, stream=StreamModel(), channel=ChannelModel(),
        outage=(0.1, 0.2), retry=RetryPolicy(), standby=echo,
        cache_tokens=1024), seed=9, registry=MetricsRegistry())
    assert layers(stack.sut) == [
        "PrefixCacheSUT", "SelfHealingSUT", "ResilientSUT", "OutageSUT",
        "SimulatedChannelSUT", "StreamingSUT", "EchoSUT"]
    assert stack.services == []
    assert stack.channel.model.seed == 9          # the one seed ...
    assert stack.channel.inner.model.seed == 9    # ... reaches every layer
    assert stack.sut.inner.standby.name == "standby"


def test_bare_spec_is_the_backend_itself():
    stack = build(StackSpec(backend=EchoBackend(0.002, concurrency=3)), 0)
    assert layers(stack.sut) == ["EchoSUT"]
    assert (stack.sut.name, stack.sut.concurrency) == ("echo", 3)
    assert stack.channel is stack.orchestrator is stack.detector is None


def test_a_network_backend_is_the_client_and_the_wire():
    spec = StackSpec(backend=NetworkBackend(
        "127.0.0.1:9", connections=2, query_timeout=0.5),
        retry=RetryPolicy())
    stack = build(spec, 0)
    assert layers(stack.sut) == ["ResilientSUT", "NetworkSUT"]
    client = stack.channel
    assert client is stack.sut.inner and stack.spec is spec
    assert (client.address, client.pool_size, client.query_timeout) == (
        ("127.0.0.1", 9), 2, 0.5)
    stack.close()


@pytest.mark.parametrize("backend, clock", [
    (EchoBackend(0.001), type(None)),
    (NetworkBackend(("127.0.0.1", 9)), WallClock),
])
def test_a_stack_runs_with_its_services_on_its_backends_clock(
        monkeypatch, backend, clock):
    seen = []
    monkeypatch.setattr(stack_module, "run_benchmark",
                        lambda *args, **kw: seen.append((args, kw)))
    stack = build(StackSpec(backend=backend,
                            fleet=FleetSpec(1, 1, detector=True)), 0)
    qsl, settings = SyntheticQSL(), TestSettings(Scenario.OFFLINE)
    stack.run(qsl, settings, log_sample_probability=0.5)
    (args, kw), = seen
    assert args == (stack.sut, qsl, settings)
    assert type(kw.pop("clock")) is clock
    assert kw == {"services": stack.services, "log_sample_probability": 0.5}
    assert stack.services == [stack.detector]


def test_fleet_services_come_back_in_start_order():
    chaos = ChaosSchedule(events=(
        ChaosEvent(time=0.01, duration=0.05, kind="gray-failure",
                   target="replica:1", severity=8.0),))
    stack = build(StackSpec(
        backend=EchoBackend(0.001), cache_tokens=4096,
        fleet=FleetSpec(replicas=3, max_replicas=6, zones=3,
                        balancer="zone-spread", attempt_timeout=0.5,
                        chaos=chaos, detector=True,
                        autoscale="cache-miss-rate")),
        seed=2, registry=MetricsRegistry())
    assert [type(s).__name__ for s in stack.services] == [
        "ChaosOrchestrator", "OutlierDetector", "Autoscaler"]
    assert stack.services[:2] == [stack.orchestrator, stack.detector]
    # The replicas are built when the run starts.
    settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=500.0,
        server_latency_bound=0.1, min_query_count=20, min_duration=0.0)
    assert stack.run(SyntheticQSL(), settings).valid
    fleet = stack.sut
    assert len(fleet.replicas) == 3
    assert len({r.zone for r in fleet.replicas}) == 3
    assert sorted(stack.orchestrator.degraded) == [0, 1, 2]
    assert [layers(cache)[:2] for cache in fleet.caches.values()] == [
        ["PrefixCacheSUT", "DegradedSUT"]] * 3
    assert fleet.caches[1].inner.inner.name == "replica-1"
    stack.close()


def test_unknown_scale_signal_is_refused():
    spec = StackSpec(fleet=FleetSpec(2, 2, autoscale="vibes"))
    with pytest.raises(KeyError, match="vibes"):
        build(spec, 0, MetricsRegistry())


@pytest.mark.parametrize("replicas", [0, 2])
def test_cache_audit_covers_single_and_fleet(replicas):
    settings = TestSettings(
        scenario=Scenario.SESSION, server_target_qps=50.0,
        session_count=8, min_duration=0.0, seed=3)
    fleet = FleetSpec(replicas, replicas) if replicas else None
    stack = build(StackSpec(backend=EchoBackend(0.001), cache_tokens=8192,
                            fleet=fleet), seed=3)
    result = stack.run(SyntheticQSL(), settings)
    stats, problems, events = stack.cache_audit(
        replay_graph_from_settings(settings))
    assert result.valid and problems == []
    assert events >= result.metrics.query_count
    assert stats.hits + stats.partial_hits + stats.misses == (
        result.metrics.query_count)
