"""Shared fixtures: small data sets, deterministic SUTs, quick settings."""

from __future__ import annotations

import contextlib
import os
import signal
import socket as _socket
import threading
import time

import pytest

from repro.core import Scenario, TestMode, TestSettings
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.datasets import (
    DatasetQSL,
    SyntheticCoco,
    SyntheticImageNet,
    SyntheticWmt,
)


class EchoQSL:
    """Minimal in-memory QSL whose samples are their own indices."""

    def __init__(self, total: int = 1000, performance: int = 256) -> None:
        self.name = "echo"
        self.total_sample_count = total
        self.performance_sample_count = performance
        self.loaded = set()

    def load_samples(self, indices) -> None:
        self.loaded.update(indices)

    def unload_samples(self, indices) -> None:
        self.loaded.difference_update(indices)

    def get_sample(self, index: int):
        return index


class FixedLatencySUT(SutBase):
    """Completes every query a fixed delay after it is issued.

    Responses echo each sample's data set index, which lets tests verify
    response plumbing end to end.
    """

    def __init__(self, latency: float = 0.005, name: str = "fixed") -> None:
        super().__init__(name)
        self.latency = latency
        self.issued = 0

    def issue_query(self, query) -> None:
        self.issued += 1
        responses = [
            QuerySampleResponse(s.id, s.index) for s in query.samples
        ]
        self.loop.schedule_after(
            self.latency, lambda: self.complete(query, responses)
        )


@contextlib.contextmanager
def one_cpu():
    """Run the block's threads on one CPU, as the repo benchmark's
    ``tcp_server`` does.  A thread inherits its creator's CPU set, so a
    server and a wire client started inside share the LoadGen's CPU.  A
    wall-clock overhead measurement then reads the serving stack: left
    to the scheduler, every hand-off between those threads may wake
    another CPU, which on a busy host costs milliseconds."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def alive_workers(pool):
    """How many of a ``WorkerPool``'s worker processes are running."""
    return sum(member is not None and member.process.is_alive()
               for member in pool._members)


def valve_healthy(valve):
    """No window of a ``WindowedSUT`` valve is in force right now."""
    now = valve.loop.now
    return not any(w.start <= now < w.end for w in valve.windows)


_LOOPBACK_HOSTS = {"127.0.0.1", "localhost", "::1"}


#: How long a thread a socket test started may outlive the test.
THREAD_GRACE = 2.0


def _leaked_threads(before):
    """Threads not in ``before`` still alive after ``THREAD_GRACE``."""
    deadline = time.monotonic() + THREAD_GRACE
    while True:
        leaked = [t for t in threading.enumerate()
                  if t not in before and t.is_alive()]
        if not leaked or time.monotonic() >= deadline:
            return leaked
        leaked[0].join(timeout=max(deadline - time.monotonic(), 0.0))


@pytest.fixture(autouse=True)
def _socket_test_guard(request):
    """Keep real-socket tests bounded: a hard per-test timeout (so a
    wedged server/reader thread fails the test instead of hanging the
    suite), a localhost-only restriction on outbound connects, and no
    leaked threads - a thread the test started that is still alive
    ``THREAD_GRACE`` seconds after it ends fails it, by name.

    Activated by ``@pytest.mark.socket`` (override the default 20 s via
    ``@pytest.mark.socket(timeout=...)``).  The timeout uses SIGALRM, so
    on platforms without it (Windows) only the localhost guard applies.
    """
    marker = request.node.get_closest_marker("socket")
    if marker is None:
        yield
        return
    timeout = float(marker.kwargs.get("timeout", 20.0))
    threads_before = set(threading.enumerate())

    real_connect = _socket.socket.connect

    def _localhost_only(sock, address, *args, **kwargs):
        host = address[0] if isinstance(address, tuple) else address
        if host not in _LOOPBACK_HOSTS:
            raise RuntimeError(
                f"socket-marked tests must stay on localhost; "
                f"attempted connect to {address!r}"
            )
        return real_connect(sock, address, *args, **kwargs)

    _socket.socket.connect = _localhost_only
    use_alarm = hasattr(signal, "SIGALRM")
    if use_alarm:
        def _fired(signum, frame):
            raise TimeoutError(
                f"socket test exceeded its {timeout}s timeout guard"
            )

        old_handler = signal.signal(signal.SIGALRM, _fired)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)
        _socket.socket.connect = real_connect
    leaked = _leaked_threads(threads_before)
    if leaked:
        pytest.fail(
            f"socket test left {len(leaked)} thread(s) alive "
            f"{THREAD_GRACE:g}s after it ended: "
            f"{sorted(t.name for t in leaked)}", pytrace=False)


@pytest.fixture
def echo_qsl():
    return EchoQSL()


@pytest.fixture
def fixed_sut():
    return FixedLatencySUT()


@pytest.fixture(scope="session")
def imagenet():
    return SyntheticImageNet(size=400)


@pytest.fixture(scope="session")
def coco():
    return SyntheticCoco(size=160)


@pytest.fixture(scope="session")
def wmt():
    return SyntheticWmt(size=240)


@pytest.fixture
def quick_single_stream():
    return TestSettings(
        scenario=Scenario.SINGLE_STREAM, min_query_count=128, min_duration=0.5
    )


@pytest.fixture
def quick_server():
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=200.0,
        server_latency_bound=0.05, min_query_count=256, min_duration=1.0,
    )


@pytest.fixture
def quick_offline():
    return TestSettings(
        scenario=Scenario.OFFLINE, offline_sample_count=512, min_duration=0.5
    )
