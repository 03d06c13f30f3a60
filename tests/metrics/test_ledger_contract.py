"""What a wired registry exports is behaviour: every family, every
series, every value at every snapshot and in the final exposition text.

Three fully wired virtual-clock stacks run at one seed each with the
sha256 of everything their registry ever showed on record - the
exposition text, a final ``capture`` and the whole snapshot stream -
beside the fleet stream pinned in ``test_snapshot_stream.py``.  Two
wall-clock runs (a loopback ``InferenceServer``, a ``ParallelSUT`` with
a crash plan) cannot be hashed, so there every exported counter that
has a field in the layer's ``*Stats`` ledger is held equal to it.
"""

import hashlib
import os

import pytest

from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.core.events import WallClock
from repro.durability import RunJournal, read_run_journal, resume_run
from repro.durability.journal import MAGIC
from repro.faults import (
    ChaosEvent,
    ChaosSchedule,
    FaultPlan,
    FaultType,
    ResilientSUT,
    RetryPolicy,
)
from repro.harness.netbench import SyntheticQSL
from repro.harness.stack import EchoBackend, FleetSpec, StackSpec, build
from repro.metrics import MetricsRegistry, capture, to_prometheus_text
from repro.network import InferenceServer, NetworkSUT, ServerConfig, protocol
from repro.network.protocol import FrameType
from repro.network.simulated import ChannelModel
from repro.parallel import ParallelSUT
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.network.test_server import RawClient
from tests.parallel.test_parallel_sut import ArrayQSL, affine_factory


def everything_shown(registry, snapshots, drop=()):
    """sha256 over the exposition text, a final capture and the stream.

    ``drop`` names families left out of the hash (their value depends on
    more than the run: a pickle's byte length); the caller holds those
    to their ledger instead.
    """
    def kept(key):
        return not key.startswith(drop) if drop else True

    text = "\n".join(
        line for line in to_prometheus_text(registry).splitlines()
        if kept(line.split(" ", 2)[2] if line.startswith("#") else line))
    final = tuple((k, v) for k, v in capture(registry, 0.0).values.items()
                  if kept(k))
    stream = [(s.time, tuple((k, v) for k, v in s.values.items() if kept(k)))
              for s in snapshots]
    return hashlib.sha256(repr((text, final, stream)).encode()).hexdigest()


# -- (a) three wired stacks, hashed ---------------------------------------------

#: Recorded at commit c1cc587 (python 3.11.7), where every counter below
#: was still incremented beside its ``*Stats`` field.
CHAIN_SHA256 = (
    "f2b92607f90863b78508225596a3c3e2dab6187737cbb70097afe6d4d4558f47")
FLEET_SHA256 = (
    "d6b24ec7b4ea6ed3b46815f9e402d54f34633cd30e0b66728403de519cc641da")
CUT_RUN_SHA256 = (
    "46234e603d8ba877780ad5e920b401c915832d6e3ee7e220580424e2c8de3d80")
RESUMED_RUN_SHA256 = (
    "bf1a017894b72f329b2b845ac3c6a8692e4292ec8cc539edb603d7c956612197")


def chain_run(seed):
    """Echo behind a stream, a lossy jittery wire, a blackout, the retry
    layer and a breaker with a standby: ``repro metrics`` with every
    flag on."""
    registry = MetricsRegistry()
    echo = EchoBackend(2e-3)
    stack = build(StackSpec(
        backend=echo, stream=StreamModel(),
        channel=ChannelModel(latency=1e-3, jitter=5e-4, drop_rate=0.05,
                             reorder_rate=0.1),
        outage=(0.3, 0.2),
        retry=RetryPolicy(max_attempts=2, attempt_timeout=0.03,
                          backoff_base=0.001),
        standby=echo), seed, registry)
    settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=400.0,
        server_latency_bound=0.1, min_query_count=800, min_duration=0.0,
        watchdog_timeout=300.0, seed=seed)
    result = stack.run(SyntheticQSL(), settings, registry=registry,
                       snapshot_period=0.05)
    return registry, result, stack


def test_the_chain_stack_shows_what_it_showed_at_the_parent():
    registry, result, stack = chain_run(5)
    healing = stack.sut
    retry = healing.primary
    # Every layer of the stack did something worth exporting.
    assert retry.stats.recovered_queries > 0 and retry.stats.gave_up_queries > 0
    assert retry.stats.filtered_completions > 0
    assert healing.stats.standby_queries > 0 and healing.stats.failovers > 0
    assert healing.stats.probe_queries > 0
    assert result.log.stream_chunks > result.log.query_count
    values = capture(registry, 0.0).values
    assert values[
        'breaker_transitions_total{source="half_open",target="closed"}'] == 1
    assert values["breaker_rejected_queries_total"] > 0
    assert values["breaker_hedged_queries_total"] > 0
    assert everything_shown(registry, result.snapshots) == CHAIN_SHA256


def fleet_run(seed):
    """Sessions through a 4-replica, 2-zone fleet with per-replica
    caches, a gray failure and a zone outage, the outlier detector, and
    the autoscaler reading the caches' missed-token series."""
    registry = MetricsRegistry()
    sessions, rate = 400, 200.0
    span = sessions / rate
    stack = build(StackSpec(
        backend=EchoBackend(2e-3, concurrency=1), cache_tokens=8192,
        fleet=FleetSpec(
            replicas=4, max_replicas=4, zones=2, balancer="zone-spread",
            attempt_timeout=0.05, detector=True, autoscale="cache-miss-rate",
            chaos=ChaosSchedule((
                ChaosEvent(0.25 * span, 0.20 * span, "gray-failure",
                           "replica:1", 200.0),
                ChaosEvent(0.55 * span, 0.20 * span, "zone-outage", "z1"),
            )))), seed, registry)
    settings = TestSettings(
        scenario=Scenario.SESSION, server_target_qps=rate,
        server_latency_bound=0.2, session_count=sessions,
        session_turns_min=2, session_turns_max=6,
        session_think_time_mean=0.05, min_duration=0.0,
        watchdog_timeout=600.0, seed=seed)
    result = stack.run(SyntheticQSL(), settings, registry=registry,
                       snapshot_period=0.05)
    return registry, result, stack


@pytest.mark.sessions
def test_the_session_fleet_shows_what_it_showed_at_the_parent():
    registry, result, stack = fleet_run(3)
    fleet = stack.sut
    stats = fleet.stats
    assert stats.zone_kills == 1 and stats.fallbacks > 0 and stats.reroutes > 0
    assert stats.shed_queries > 0 and stats.stragglers_absorbed > 0
    assert stats.readmissions > 0 and stats.cache_warms > 0
    assert stats.drained_replicas > 0
    assert result.stats.sessions_aborted > 0
    assert len(result.log.failed_records()) == stats.shed_queries
    values = capture(registry, 0.0).values
    assert sum(v for k, v in values.items()
               if k.startswith("autoscaler_actions_total")
               and 'action="hold"' not in k) > 0
    assert sum(v for k, v in values.items()
               if k.startswith("prefix_cache_evictions_total")) > 0
    assert everything_shown(registry, result.snapshots) == FLEET_SHA256


JOURNAL_BYTES = ("durability_journal_bytes_total",)
#: A journal frame is ``<u32 payload_len> <u32 crc32> <payload>``.
FRAME_HEADER = 8


def outage_stack(registry):
    """Echo that answers nothing for 50 ms under a retry layer that gives
    up after two tries: some queries fail, so the journal holds failures
    to replay as well as completions."""
    return build(StackSpec(
        backend=EchoBackend(3e-3), outage=(0.1, 0.05),
        retry=RetryPolicy(max_attempts=2, attempt_timeout=0.01,
                          backoff_base=0.001)), 7, registry).sut


def test_a_journalled_run_cut_and_resumed_shows_what_it_showed(tmp_path):
    settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=300.0,
        server_latency_bound=0.05, min_query_count=120, min_duration=0.0,
        watchdog_timeout=30.0, seed=7)
    path = tmp_path / "run.rjnl"
    first = MetricsRegistry()
    journal = RunJournal(path, fsync="always", checkpoint_period=0.05,
                         registry=first)
    result = run_benchmark(
        outage_stack(first), SyntheticQSL(), settings, journal=journal,
        registry=first, snapshot_period=0.05)
    failed = len(result.log.failed_records())
    assert 0 < failed < 60
    # The byte count hangs on how TestSettings pickles; it is held to
    # the writer's own total instead of to a recorded number.
    assert first.get("durability_journal_bytes_total").value == (
        journal.stats.bytes)
    assert first.get("durability_journal_fsyncs_total").value == (
        journal.stats.fsyncs) > 240
    assert first.get("durability_checkpoints_total").value >= 2
    assert everything_shown(
        first, result.snapshots, drop=JOURNAL_BYTES) == CUT_RUN_SHA256

    # The crash: the file keeps two thirds of its frames and tears the
    # next one 3 bytes in.  The cut is counted in frames, so it does not
    # move with how many bytes the header's TestSettings pickle to.
    blob = path.read_bytes()
    ends, offset = [], len(MAGIC)
    while offset < len(blob):
        offset += FRAME_HEADER + int.from_bytes(
            blob[offset:offset + 4], "little")
        ends.append(offset)
    with open(path, "r+b") as f:
        f.truncate(ends[len(ends) * 2 // 3 - 1] + 3)
    intact = read_run_journal(path).intact_bytes
    assert intact == ends[len(ends) * 2 // 3 - 1]
    second = MetricsRegistry()
    resumed = resume_run(
        str(path), outage_stack(second), SyntheticQSL(), registry=second,
        snapshot_period=0.05, fsync="always", checkpoint_period=0.05)
    assert len(resumed.log.failed_records()) == failed
    values = capture(second, 0.0).values
    assert values["durability_resumes_total"] == 1
    assert values["durability_replayed_completions_total"] > 0
    assert values["durability_replayed_failures_total"] == failed
    assert values["durability_recomputed_queries_total"] > 0
    assert values["durability_journal_bytes_total"] == (
        os.path.getsize(path) - intact)
    assert everything_shown(
        second, resumed.snapshots, drop=JOURNAL_BYTES) == RESUMED_RUN_SHA256


# -- (b) wall-clock layers: the exported counter equals the ledger field ---------

#: ``server_*`` counter -> the ``ServerStats`` field that counts the
#: same event.
SERVER_LEDGER = {
    "server_connections_total": "connections",
    "server_queries_received_total": "queries_received",
    "server_queries_completed_total": "completed",
    "server_queries_failed_total": "failed",
    "server_stream_chunks_total": "chunks",
    "server_queries_rejected_total": "rejected",
    "server_protocol_errors_total": "protocol_errors",
    "server_batches_total": "batches",
}


@pytest.mark.socket
def test_a_loopback_server_exports_its_ledger():
    registry = MetricsRegistry()
    server = InferenceServer(
        lambda: StreamingSUT(EchoSUT(latency=0.002), model=StreamModel()),
        ServerConfig(workers=1, max_batch=2, max_queue=1),
        registry=registry)
    address = server.start()
    sut = NetworkSUT(address, query_timeout=2.0, max_attempts=1)
    settings = TestSettings(
        scenario=Scenario.SINGLE_STREAM, min_query_count=40,
        min_duration=0.0, watchdog_timeout=60.0, seed=1)
    try:
        result = run_benchmark(sut, SyntheticQSL(), settings,
                               clock=WallClock())
        assert result.valid, result.validity.reasons
        # Eight ISSUEs in one write against a one-deep queue: the
        # session thread offers them faster than the worker takes them.
        burst = RawClient(address)
        burst.sock.sendall(b"".join(
            protocol.encode_frame(FrameType.ISSUE, {
                "query_id": qid, "samples": [[qid, qid]]})
            for qid in range(8)))
        terminal = 0
        while terminal < 8:
            terminal += burst.recv()[0] in (FrameType.COMPLETE,
                                            FrameType.FAIL)
        burst.close()
        # And a connection that does not speak the protocol at all.
        garbage = RawClient(address)
        garbage.sock.sendall(b"\xde\xad\xbe\xef" * 4)
        assert garbage.expect_closed()
        garbage.close()
    finally:
        sut.close()
        server.stop()
    stats = server.stats
    assert stats.rejected > 0 and stats.failed == stats.rejected
    assert stats.queries_received == 48
    assert stats.completed == 48 - stats.rejected
    assert stats.chunks > stats.completed and stats.batches > 0
    assert stats.connections == 3 and stats.protocol_errors == 1
    for family, field in SERVER_LEDGER.items():
        assert registry.get(family).value == getattr(stats, field), family


def test_a_crashing_worker_pool_exports_its_ledger():
    registry = MetricsRegistry()
    qsl = ArrayQSL(32)
    inner = ParallelSUT(
        affine_factory, qsl, workers=2, seed=9,
        crash_plan=FaultPlan.single(FaultType.STALL, rate=0.5, seed=21),
        registry=registry)
    sut = ResilientSUT(
        inner, RetryPolicy(max_attempts=8, backoff_base=0.001))
    settings = TestSettings(
        scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
        min_duration=0.0, min_query_count=1)
    try:
        result = run_benchmark(sut, qsl, settings)
    finally:
        inner.close()
    assert result.valid, result.validity
    pool = inner.pool.stats
    assert pool.crashes > 0 and pool.restarts > 0
    assert registry.get("parallel_worker_crashes_total").value == pool.crashes
    assert registry.get(
        "parallel_worker_restarts_total").value == pool.restarts
