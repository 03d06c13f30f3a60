"""Extension: Network-division overhead and QoS-degradation study.

The real MLPerf Network division asks one question the in-process
benchmark cannot: what does the serving boundary itself cost?  This
study answers it two ways with the same echo backend:

* **Per-query network overhead** - the same Server-scenario run measured
  in-process (wall clock, no wire) and through the full
  ``InferenceServer``/``NetworkSUT`` TCP path on loopback.  The latency
  difference is the serving stack: protocol encode/decode, kernel
  sockets, the server's admission queue and worker handoff.  It must be
  measurable (the wire is not free) yet small against the backend's own
  service time (the stack is not the bottleneck).

* **QoS degradation versus channel latency** - the deterministic twin:
  a virtual-time ``SimulatedChannelSUT`` sweep over one-way latencies.
  Tail latency must grow by exactly the added round trip, and the
  Server-scenario verdict must flip from VALID to INVALID where the
  wire eats the latency bound - the cliff a Network-division submitter
  walks toward as they move the SUT farther from the LoadGen.
"""

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.events import WallClock
from repro.harness.netbench import (
    SyntheticQSL,
    latency_overhead,
    run_over_localhost,
)
from repro.harness.stack import EchoBackend, StackSpec, build
from repro.network import ChannelModel
from repro.sut.echo import EchoSUT

from tests.conftest import one_cpu

pytestmark = pytest.mark.socket(timeout=120.0)

BACKEND_LATENCY = 0.002
LATENCY_BOUND = 0.015           # the paper's ResNet-50 server bound
SWEEP_ONE_WAY_MS = (0.1, 1.0, 3.0, 6.0, 12.0)


def server_settings(queries=150, bound=0.1):
    return TestSettings(
        scenario=Scenario.SERVER,
        server_target_qps=200.0,
        server_latency_bound=bound,
        min_query_count=queries,
        min_duration=0.0,
        watchdog_timeout=60.0,
    )


@pytest.fixture(scope="module")
def overhead_measurement():
    """One in-process and one networked run of the same workload, both
    on one CPU (``one_cpu``)."""
    settings = server_settings()
    qsl = SyntheticQSL()
    with one_cpu():
        baseline = run_benchmark(
            EchoSUT(latency=BACKEND_LATENCY), qsl, settings,
            clock=WallClock())
        networked = run_over_localhost(
            lambda: EchoSUT(latency=BACKEND_LATENCY), qsl, settings,
            query_timeout=5.0)
    return baseline, networked


class TestPerQueryOverhead:
    def test_both_runs_valid(self, overhead_measurement):
        baseline, networked = overhead_measurement
        assert baseline.valid, baseline.validity.reasons
        assert networked.valid, networked.result.validity.reasons

    def test_overhead_is_positive_and_bounded(self, overhead_measurement):
        baseline, networked = overhead_measurement
        overhead = latency_overhead(networked, baseline)
        # The wire must cost something...
        assert overhead["wire_share_s"] > 0
        # ...but on loopback it stays well under the 2 ms backend
        # service time: the serving stack is overhead, not bottleneck.
        assert overhead["mean_overhead_s"] < BACKEND_LATENCY

    def test_transport_accounting_is_consistent(self, overhead_measurement):
        _, networked = overhead_measurement
        for timing in networked.transport.values():
            assert timing.round_trip > 0
            assert 0 <= timing.server_time <= timing.round_trip + 1e-6
            assert timing.network_time == pytest.approx(
                timing.round_trip - timing.server_time, abs=1e-9)

    def test_server_saw_every_query(self, overhead_measurement):
        _, networked = overhead_measurement
        assert (networked.server_stats["completed"]
                >= networked.result.metrics.query_count)


def run_channel(model, settings, seed=71):
    """The echo backend behind ``model``'s wire, on the virtual clock:
    the verdict and the channel's counters."""
    stack = build(StackSpec(EchoBackend(BACKEND_LATENCY), channel=model),
                  seed)
    return stack.run(SyntheticQSL(), settings), stack.channel.stats


@pytest.fixture(scope="module")
def latency_sweep():
    """Virtual-time QoS sweep: one run per one-way channel latency."""
    results = {}
    for one_way_ms in SWEEP_ONE_WAY_MS:
        results[one_way_ms], _ = run_channel(
            ChannelModel(latency=one_way_ms * 1e-3),
            server_settings(bound=LATENCY_BOUND))
    return results


class TestQosDegradation:
    def test_latency_grows_with_the_channel(self, latency_sweep):
        means = [latency_sweep[ms].metrics.latency_mean
                 for ms in SWEEP_ONE_WAY_MS]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_added_latency_is_the_round_trip(self, latency_sweep):
        """Each extra millisecond of one-way latency costs exactly two
        on the measured query latency (deterministic channel, no jitter,
        no queueing at these rates)."""
        fast = latency_sweep[SWEEP_ONE_WAY_MS[0]].metrics
        slow = latency_sweep[SWEEP_ONE_WAY_MS[-1]].metrics
        added_one_way = (SWEEP_ONE_WAY_MS[-1] - SWEEP_ONE_WAY_MS[0]) * 1e-3
        assert (slow.latency_mean - fast.latency_mean
                == pytest.approx(2 * added_one_way, rel=0.02))

    def test_verdict_flips_exactly_at_the_budget_cliff(self, latency_sweep):
        """VALID while 2 * one_way + backend fits the bound, INVALID
        beyond - and the transition is monotone (no flapping)."""
        verdicts = [latency_sweep[ms].valid for ms in SWEEP_ONE_WAY_MS]
        assert verdicts[0] is True
        assert verdicts[-1] is False
        assert verdicts == sorted(verdicts, reverse=True)
        for one_way_ms, valid in zip(SWEEP_ONE_WAY_MS, verdicts):
            fits = 2 * one_way_ms * 1e-3 + BACKEND_LATENCY < LATENCY_BOUND
            if fits and one_way_ms <= 3.0:
                assert valid, f"{one_way_ms} ms should fit the budget"
            if not fits:
                assert not valid, f"{one_way_ms} ms cannot fit the budget"

    def test_sweep_is_deterministic(self):
        model = ChannelModel(latency=0.003, jitter=0.0005)
        settings = server_settings(queries=80, bound=LATENCY_BOUND)
        a, a_stats = run_channel(model, settings)
        b, b_stats = run_channel(model, settings)
        assert a.metrics.latency_p99 == b.metrics.latency_p99
        assert a_stats == b_stats
