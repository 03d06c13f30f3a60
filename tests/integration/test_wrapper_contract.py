"""The behavioural contract of the four wrappers that re-issue work.

``ResilientSUT``, ``SelfHealingSUT`` and ``ReplicaSet`` (and
``NetworkSUT``, covered by the socket tests) all run the same attempt
machine; what that machine does is pinned here from the outside, so its
inside can be rewritten:

* **Transparency** - any stack of *healthy* wrappers, nested up to three
  deep over a plain or a streaming echo backend, yields the bare
  backend's ``run_fingerprint`` and chunk trail.
* **Pinned faulty stacks** - seven stack shapes x plain/streamed x three
  seeds, each reduced to a digest of (verdict, ``run_fingerprint``,
  chunk trail, the wrapper's stats line, failed-record count).
  The constants were recorded before the attempt engine existed; a
  refactor of the wrappers may not touch them.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.durability import BreakerPolicy, SelfHealingSUT, run_fingerprint
from repro.durability.healing import HealingStats
from repro.faults import (
    FaultPlan,
    FaultType,
    FaultySUT,
    OutageSUT,
    ResilientSUT,
    RetryPolicy,
)
from repro.fleet import ReplicaSet
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL

MODEL = StreamModel(first_token_delay=0.001, inter_token_delay=0.0002,
                    min_tokens=3, max_tokens=8, seed=5)
BREAKER = BreakerPolicy(window=10, failure_threshold=0.5, min_samples=4,
                        open_duration=0.1, half_open_probes=2)


def run_settings(seed, queries=150):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=400.0,
        server_latency_bound=0.5, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=30.0, seed=seed)


def chunk_trail(result):
    log = result.log
    return (log.stream_chunks, log.stream_tokens,
            tuple((r.first_chunk_time, r.last_chunk_time, r.chunk_count,
                   r.stream_restarts) for r in log.records()))


# -- transparency -------------------------------------------------------------

def backend(streamed, latency=0.0005):
    echo = EchoSUT(latency=latency)
    return StreamingSUT(echo, model=MODEL) if streamed else echo


@st.composite
def healthy_layers(draw):
    """One to three wrapper layers, outermost first."""
    layer = st.one_of(
        st.just(("resilient",)),
        st.tuples(st.just("healing"), st.booleans(), st.booleans()),
        st.tuples(st.just("fleet"), st.integers(1, 3)),
    )
    return draw(st.lists(layer, min_size=1, max_size=3))


def build_healthy(layers, streamed):
    if not layers:
        return backend(streamed)
    layer, below = layers[0], layers[1:]
    if layer[0] == "resilient":
        return ResilientSUT(build_healthy(below, streamed))
    if layer[0] == "healing":
        _, standby, hedge = layer
        return SelfHealingSUT(
            build_healthy(below, streamed),
            build_healthy(below, streamed) if standby else None,
            hedge_delay=0.05 if standby and hedge else None)
    return ReplicaSet(lambda index: build_healthy(below, streamed),
                      initial_replicas=layer[1])


BARE = {}


def bare_contract(streamed):
    if streamed not in BARE:
        result = run_benchmark(backend(streamed), EchoQSL(), run_settings(0))
        assert result.valid
        BARE[streamed] = (run_fingerprint(result), chunk_trail(result))
    return BARE[streamed]


@given(layers=healthy_layers(), streamed=st.booleans())
@settings(max_examples=40, deadline=None)
def test_healthy_wrappers_are_transparent(layers, streamed):
    result = run_benchmark(
        build_healthy(layers, streamed), EchoQSL(), run_settings(0))
    assert (run_fingerprint(result), chunk_trail(result)) \
        == bare_contract(streamed)


# -- pinned faulty stacks -----------------------------------------------------

def faulty(seed, streamed, rate=0.04):
    """An echo whose terminal outcomes are sabotaged; when streamed the
    faults land below the shim, so dropped, duplicated and malformed
    answers become missing, interleaved and badly-ended streams."""
    # Every fault but STALL: a crashed backend ends the experiment.
    rates = {f: rate for f in FaultType if f is not FaultType.STALL}
    sut = FaultySUT(EchoSUT(latency=0.001),
                    FaultPlan(rates=rates, seed=1000 + seed))
    return StreamingSUT(sut, model=MODEL) if streamed else sut


def outage(streamed, start=0.05, duration=0.12):
    return OutageSUT(backend(streamed), start, duration)


RETRY = RetryPolicy(max_attempts=4, attempt_timeout=0.010,
                    backoff_base=0.001, total_timeout=0.060)


def resilient_over_faulty(seed, streamed):
    return ResilientSUT(faulty(seed, streamed), RETRY, seed=seed)


def resilient_over_lossy_channel(seed, streamed):
    channel = SimulatedChannelSUT(
        backend(streamed),
        ChannelModel(latency=0.0005, jitter=0.0002, drop_rate=0.05,
                     reorder_rate=0.1, seed=2000 + seed))
    return ResilientSUT(channel, RETRY, seed=seed)


def healing_outage_hedged(seed, streamed):
    # The standby is too slow for a hedge to beat the deadline, so the
    # outage trips the breaker and the standby then carries routed load.
    return SelfHealingSUT(
        outage(streamed), backend(streamed, latency=0.017), policy=BREAKER,
        attempt_timeout=0.020, total_timeout=0.050, hedge_delay=0.004)


def healing_outage_no_standby(seed, streamed):
    return SelfHealingSUT(outage(streamed), policy=BREAKER,
                          attempt_timeout=0.020)


def healing_faulty_standby(seed, streamed):
    return SelfHealingSUT(
        faulty(seed, streamed, rate=0.05), faulty(seed + 50, streamed),
        policy=BREAKER, attempt_timeout=0.020, hedge_delay=0.003)


def fleet_over_faulty(seed, streamed):
    return ReplicaSet(
        lambda index: faulty(seed + 10 * index, streamed),
        initial_replicas=3, breaker_policy=BREAKER, attempt_timeout=0.010,
        seed=seed)


def fleet_with_outage_replica(seed, streamed):
    return ReplicaSet(
        lambda index: outage(streamed) if index == 1 else backend(streamed),
        initial_replicas=3, policy="least-outstanding",
        breaker_policy=BREAKER, attempt_timeout=0.010, max_reroutes=1,
        seed=seed)


SHAPES = {
    "resilient/faulty": resilient_over_faulty,
    "resilient/lossy-channel": resilient_over_lossy_channel,
    "healing/outage+hedge": healing_outage_hedged,
    "healing/outage-no-standby": healing_outage_no_standby,
    "healing/faulty-standby": healing_faulty_standby,
    "fleet/faulty-replicas": fleet_over_faulty,
    "fleet/outage-replica": fleet_with_outage_replica,
}


def stats_line(stats):
    """The wrapper's counters as one line, as the digests were recorded:
    its ``summary()``, or the line ``HealingStats.summary()`` printed
    before that method was deleted."""
    if isinstance(stats, HealingStats):
        return (
            f"shed={stats.shed_queries} standby={stats.standby_queries} "
            f"hedged={stats.hedged_queries} failovers={stats.failovers} "
            f"hedge_wins={stats.hedge_wins} "
            f"primary_failures={stats.primary_failures} "
            f"deadlines={stats.deadline_failures}"
        )
    return stats.summary()


def contract_digest(shape, streamed, seed):
    sut = SHAPES[shape](seed, streamed)
    result = run_benchmark(sut, EchoQSL(), run_settings(seed))
    material = (result.valid, run_fingerprint(result), chunk_trail(result),
                stats_line(sut.stats), len(result.log.failed_records()))
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16]


#: Recorded at the commit before the attempt engine (de00a39).
PINNED = {
    ("fleet/faulty-replicas", False, 0): "88ab94b5ed27e33f",
    ("fleet/faulty-replicas", False, 1): "b32ae8b3af8fc830",
    ("fleet/faulty-replicas", False, 2): "cf2147ba14b40fa2",
    ("fleet/faulty-replicas", True, 0): "79bde13539c513ee",
    ("fleet/faulty-replicas", True, 1): "d622ebdf38c7bb34",
    ("fleet/faulty-replicas", True, 2): "9f8204afb511ceb1",
    ("fleet/outage-replica", False, 0): "6e514dc80f84aa4f",
    ("fleet/outage-replica", False, 1): "269de420aca929ae",
    ("fleet/outage-replica", False, 2): "d1c8f8ea15f6f0f5",
    ("fleet/outage-replica", True, 0): "1f10f9a88ecc1d36",
    ("fleet/outage-replica", True, 1): "eab02330f8891ac9",
    ("fleet/outage-replica", True, 2): "e1e87fbda4895f6f",
    ("healing/faulty-standby", False, 0): "2094194dad35d147",
    ("healing/faulty-standby", False, 1): "fc7f905d25431969",
    ("healing/faulty-standby", False, 2): "5c2f627a5f196b01",
    ("healing/faulty-standby", True, 0): "5b0317e250b47af2",
    ("healing/faulty-standby", True, 1): "88d31c2059a6dad7",
    ("healing/faulty-standby", True, 2): "aee91f33b056eb6b",
    ("healing/outage+hedge", False, 0): "e59d67f2284fbfea",
    ("healing/outage+hedge", False, 1): "169bf0a63e338065",
    ("healing/outage+hedge", False, 2): "af53723ffa7b3147",
    ("healing/outage+hedge", True, 0): "288761ccb9b4b344",
    ("healing/outage+hedge", True, 1): "457a8795869fbf80",
    ("healing/outage+hedge", True, 2): "c9405095bae7e8bc",
    ("healing/outage-no-standby", False, 0): "fcdb74b5ba48c935",
    ("healing/outage-no-standby", False, 1): "33c2b9d04d3f4ec0",
    ("healing/outage-no-standby", False, 2): "8f38d14211355c9d",
    ("healing/outage-no-standby", True, 0): "5ccdb67e781899be",
    ("healing/outage-no-standby", True, 1): "93d457881018c865",
    ("healing/outage-no-standby", True, 2): "70e0da1bf21f86e1",
    ("resilient/faulty", False, 0): "68898a77084396d6",
    ("resilient/faulty", False, 1): "b786a4c086a57c8d",
    ("resilient/faulty", False, 2): "97678ae108a49310",
    ("resilient/faulty", True, 0): "9c0a25c2c5cf90b8",
    ("resilient/faulty", True, 1): "edcc123fb85e49d2",
    ("resilient/faulty", True, 2): "5d3a897bb747bf8e",
    ("resilient/lossy-channel", False, 0): "b7d35869df94c8c3",
    ("resilient/lossy-channel", False, 1): "2a7f64be7cadf9f6",
    ("resilient/lossy-channel", False, 2): "4b1f7aac8b4c7528",
    ("resilient/lossy-channel", True, 0): "80ba293fedd95d02",
    ("resilient/lossy-channel", True, 1): "683f611674d43f5d",
    ("resilient/lossy-channel", True, 2): "ac875e491cc6496a",
}


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("streamed", (False, True),
                         ids=("plain", "streamed"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_faulty_stack_behaviour_is_pinned(shape, streamed, seed):
    assert contract_digest(shape, streamed, seed) \
        == PINNED[shape, streamed, seed]
