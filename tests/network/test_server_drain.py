"""Graceful drain, leak-free teardown, and completion hygiene across
the faults x network x parallel composition (``repro serve`` path)."""

import os
import time

import pytest

from repro.core.config import Scenario, TestSettings
from repro.core.events import WallClock
from repro.core.loadgen import run_benchmark
from repro.faults import FaultPlan, FaultType, FaultySUT, ResilientSUT
from repro.faults.resilient import RetryPolicy
from repro.harness.netbench import SyntheticQSL, parallel_echo_backend
from repro.network import protocol
from repro.network.client import NetworkSUT
from repro.network.protocol import FrameType
from repro.network.server import InferenceServer, ServerConfig
from repro.sut.echo import EchoSUT

from tests.conftest import alive_workers
from tests.network.test_server import RawClient, issue

pytestmark = pytest.mark.socket


def shm_segments():
    """Names of live shared-memory segments (Linux tmpfs view)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux: skip the leak accounting
        return set()


class TestDrain:
    def test_drain_refuses_new_work_but_flushes_inflight(self):
        config = ServerConfig(port=0, workers=2, max_queue=32, max_batch=4)
        with InferenceServer(lambda: EchoSUT(latency=0.05), config) as srv:
            client = RawClient(srv.address)
            issue(client, query_id=1, sample_ids=[1])  # 50 ms in flight
            deadline = time.monotonic() + 5.0
            while (srv.stats.queries_received < 1
                   and time.monotonic() < deadline):
                time.sleep(0.002)  # admit query 1 before the drain flips
            srv.begin_drain()
            issue(client, query_id=2, sample_ids=[2])
            outcomes = {}
            for _ in range(2):
                ftype, payload = client.recv()
                if ftype is FrameType.FAIL:
                    qid, reason = protocol.parse_fail(payload)
                    outcomes[qid] = reason
                else:
                    qid, *_ = protocol.parse_complete(payload)
                    outcomes[qid] = "ok"
            # The in-flight query completed; the post-drain one did not.
            assert outcomes[1] == "ok"
            assert "server is draining" in outcomes[2]
            assert srv.drain(timeout=5.0) is True
            client.close()

    def test_stop_delivers_what_it_drains(self):
        """``stop()`` drains before it closes the sessions, so every
        admitted query's answer reaches its client.  (Waiting only for
        the admission queue to empty, it once closed them while the
        answers were still being worked: ``stats.completed`` read 4 and
        the client received none.)"""
        config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=1)
        srv = InferenceServer(lambda: EchoSUT(latency=0.05), config)
        srv.start()
        client = RawClient(srv.address)
        try:
            for qid in range(4):
                issue(client, query_id=qid, sample_ids=[qid])
            deadline = time.monotonic() + 5.0
            while (srv.stats.queries_received < 4
                   and time.monotonic() < deadline):
                time.sleep(0.002)
            srv.stop()
            assert client.expect_closed()
        finally:
            srv.stop(drain=False)
            client.close()
        completed = [protocol.parse_complete(payload)[0]
                     for ftype, payload in client.frames
                     if ftype is FrameType.COMPLETE]
        assert completed == [0, 1, 2, 3]
        assert srv.stats.completed == 4

    def test_drain_times_out_when_inflight_never_finishes(self):
        config = ServerConfig(port=0, workers=1, max_queue=4, max_batch=1)
        # Five times the drain deadline, and short enough that stop()
        # joins the worker instead of leaving it behind.
        slow = lambda: EchoSUT(latency=1.0)  # noqa: E731
        srv = InferenceServer(slow, config)
        srv.start()
        try:
            client = RawClient(srv.address)
            issue(client, query_id=1, sample_ids=[1])
            time.sleep(0.05)  # let the worker pick it up
            started = time.monotonic()
            assert srv.drain(timeout=0.2) is False
            assert time.monotonic() - started < 2.0
            client.close()
        finally:
            srv.stop(drain=False)

    def test_drain_on_an_idle_server_is_instant(self):
        config = ServerConfig(port=0, workers=1, max_queue=4, max_batch=1)
        with InferenceServer(lambda: EchoSUT(), config) as srv:
            assert srv.drain(timeout=1.0) is True

    def test_drain_after_stop_reports_drained(self):
        # drain() is the universal shutdown front door (the CLI calls it
        # unconditionally); on a stopped or never-started server it must
        # succeed immediately instead of spinning on dead queues.
        config = ServerConfig(port=0, workers=1, max_queue=4, max_batch=1)
        srv = InferenceServer(lambda: EchoSUT(), config)
        srv.start()
        srv.stop()
        assert srv.drain(timeout=1.0) is True


class TestNoLeaks:
    def test_parallel_backend_leaves_no_shared_memory_behind(self):
        """The ``repro serve --backend parallel`` teardown contract:
        after drain + stop, every worker process and every shared-memory
        segment the pool created is gone - whatever order the shutdown
        came in."""
        before = shm_segments()
        backend = parallel_echo_backend(workers=2, compute_time=0.001)
        config = ServerConfig(port=0, workers=2, max_queue=32, max_batch=4)
        srv = InferenceServer(backend, config)
        srv.start()
        client = RawClient(srv.address)
        for qid in range(8):
            issue(client, query_id=qid, sample_ids=[qid])
        for _ in range(8):
            assert client.recv()[0] is FrameType.COMPLETE
        assert srv.drain(timeout=5.0) is True
        srv.stop(drain=False)
        client.close()
        assert not alive_workers(backend.pool)
        assert shm_segments() - before == set()

    def test_stop_without_drain_still_closes_the_backend(self):
        before = shm_segments()
        backend = parallel_echo_backend(workers=2, compute_time=0.001)
        config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=4)
        srv = InferenceServer(backend, config)
        srv.start()
        srv.stop()  # the KeyboardInterrupt-without-drain ordering
        assert not alive_workers(backend.pool)
        assert shm_segments() - before == set()


class TestFilterComposition:
    @pytest.mark.socket(timeout=60.0)
    def test_duplicates_and_phantoms_from_a_parallel_server_are_absorbed(self):
        """Satellite coverage for the faults x network x parallel stack:
        a fault layer duplicates completions and fabricates unsolicited
        ones *between* the LoadGen and a NetworkSUT backed by a parallel
        InferenceServer.  The ResilientSUT's arrival screen must
        absorb every duplicate and phantom so the referee still reaches
        a VALID verdict."""
        backend = parallel_echo_backend(workers=2, compute_time=0.001)
        config = ServerConfig(port=0, workers=2, max_queue=64, max_batch=8)
        plan = FaultPlan(
            rates={FaultType.DUPLICATE: 0.3, FaultType.UNSOLICITED: 0.2},
            seed=5)
        with InferenceServer(backend, config) as srv:
            net = NetworkSUT(srv.address, query_timeout=5.0)
            sut = ResilientSUT(
                FaultySUT(net, plan),
                RetryPolicy(attempt_timeout=1.0), seed=5)
            settings = TestSettings(
                scenario=Scenario.SERVER, server_target_qps=150.0,
                server_latency_bound=0.2, min_query_count=40,
                min_duration=0.0, watchdog_timeout=30.0)
            try:
                result = run_benchmark(
                    sut, SyntheticQSL(total=256, performance=64),
                    settings, clock=WallClock())
            finally:
                net.close()
        assert result.valid, result.validity.reasons
        # The injected garbage actually existed and was absorbed below
        # the referee: no duplicate/unsolicited verdicts in the result.
        assert sut.stats.filtered_completions > 0
        assert all("duplicate" not in reason and "unsolicited" not in reason
                   for reason in result.validity.reasons)
