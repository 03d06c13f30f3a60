"""Extension: replicated serving fleet — capacity search under faults.

The study behind ``docs/fleet.md``: a load-balanced replica fleet is
driven through the three claims the fleet layer makes:

* capacity search — the binary SLO sweep lands within one resolution
  step of an exhaustive step-scan ground truth on a modeled
  serial-queue SUT, in a fraction of the probes;
* replica kill — killing 1 of 4 replicas mid-Server-run stays VALID
  with zero lost queries (in-flight work is rescued onto survivors)
  and a bounded p99 inflation over the undisturbed baseline;
* determinism — the autoscaler's full decision trace and the run
  fingerprint are bit-identical across same-seed runs, including under
  a flash-crowd burst plan.
"""

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.durability import run_fingerprint
from repro.fleet import (
    Autoscaler,
    AutoscalerPolicy,
    ReplicaSet,
    SweepConfig,
    SweepHarness,
)

from tests.conftest import EchoQSL, FixedLatencySUT
from tests.fleet.test_sweep import SerialQueueSUT

SERVICE_TIME = 0.030
QUERIES = 400

SETTINGS = TestSettings(
    scenario=Scenario.SERVER, server_target_qps=200.0,
    server_latency_bound=0.2, min_query_count=QUERIES,
    min_duration=0.0, watchdog_timeout=120.0, seed=23)


def fleet_of(n, **kwargs):
    kwargs.setdefault("attempt_timeout", 0.5)
    return ReplicaSet(lambda i: FixedLatencySUT(SERVICE_TIME),
                      initial_replicas=n, **kwargs)


class _KillAt:
    """RunService that kills one replica at a scheduled run time."""

    def __init__(self, fleet, index, at):
        self.fleet, self.index, self.at = fleet, index, at
        self.rescued = None

    def start(self, loop, keep_going):
        def _kill():
            self.rescued = self.fleet.kill_replica(self.index)
        loop.schedule_after(self.at, _kill)

    def stop(self):
        pass


class TestCapacitySweep:
    """Binary search vs. exhaustive scan on a known-capacity SUT."""

    def test_binary_sweep_matches_step_scan_ground_truth(
            self, benchmark, tmp_path):
        settings = TestSettings(
            scenario=Scenario.SERVER, server_target_qps=1.0,
            server_latency_bound=0.05, min_query_count=200,
            min_duration=0.0, watchdog_timeout=600.0, seed=23)
        resolution = 5.0

        def make_harness(mode):
            return SweepHarness(
                lambda: SerialQueueSUT(0.010), EchoQSL(), settings,
                SweepConfig(qps_low=10.0, qps_high=160.0,
                            resolution=resolution, mode=mode))

        def study():
            truth = make_harness("step").run()
            binary = make_harness("binary").run()
            return truth, binary

        truth, binary = benchmark.pedantic(study, rounds=1, iterations=1)
        print(f"\n  step-scan ground truth: {truth.summary()}")
        print(f"  binary search:          {binary.summary()}")
        assert truth.max_qps is not None
        assert binary.max_qps is not None
        # The acceptance bar: within one resolution step of the truth.
        assert abs(binary.max_qps - truth.max_qps) <= resolution
        # And materially cheaper than the scan that proves it right.
        assert len(binary.probes) < len(truth.probes)
        report = binary.write(tmp_path / "BENCH_fleet.json")
        assert report.exists()


class TestReplicaKill:
    """Losing 1 of 4 replicas mid-run degrades, never drops."""

    def test_kill_one_of_four_valid_zero_lost_bounded_p99(
            self, benchmark):
        def baseline_run():
            fleet = fleet_of(4, seed=23)
            return run_benchmark(fleet, EchoQSL(), SETTINGS), fleet

        def kill_run():
            fleet = fleet_of(4, seed=23)
            killer = _KillAt(fleet, 1, at=0.9)
            result = run_benchmark(fleet, EchoQSL(), SETTINGS,
                                   services=[killer])
            return result, fleet, killer

        (base, _), (hit, fleet, killer) = benchmark.pedantic(
            lambda: (baseline_run(), kill_run()),
            rounds=1, iterations=1)

        print(f"\n  baseline: p99={base.metrics.latency_p99 * 1e3:.1f}ms "
              f"valid={base.valid}")
        print(f"  1-of-4 killed: p99={hit.metrics.latency_p99 * 1e3:.1f}ms "
              f"valid={hit.valid} rescued={killer.rescued} "
              f"{fleet.stats.summary()}")

        assert base.valid and hit.valid
        # Zero lost queries: everything completed, nothing failed.
        assert not hit.log.failed_records()
        assert len(hit.log.completed_records()) == QUERIES
        assert killer.rescued is not None and killer.rescued > 0
        assert fleet.stats.shed_queries == 0
        # Graceful degradation: p99 may inflate (3 survivors carry the
        # load) but stays inside the SLO bound, not a cliff.
        assert hit.metrics.latency_p99 <= SETTINGS.server_latency_bound
        assert hit.metrics.latency_p99 <= 4 * base.metrics.latency_p99

    def test_slow_replica_brownout_is_routed_around(self):
        from repro.faults import Window, WindowedSUT

        def factory(index):
            backend = FixedLatencySUT(SERVICE_TIME)
            if index == 0:
                # 30 ms answers held back 5x their time: 150 ms more.
                return WindowedSUT(
                    backend, (Window(0.5, 1.5, "stretch", 6.0),))
            return backend

        fleet = ReplicaSet(factory, initial_replicas=4,
                           policy="weighted-p99", attempt_timeout=0.5,
                           seed=23)
        result = run_benchmark(fleet, EchoQSL(), SETTINGS)
        assert result.valid
        assert not result.log.failed_records()
        # The weighted policy starves the browned-out replica.
        browned = fleet.replicas[0].issued
        healthy = [r.issued for r in fleet.replicas[1:]]
        assert browned < min(healthy)


class TestDeterminism:
    """Same seed, same everything — even under a flash crowd."""

    def test_autoscaler_trace_bit_identical_under_flash_crowd(
            self, benchmark):
        settings = SETTINGS.with_overrides(
            server_rate_bursts=((0.8, 0.6, 3.0),))

        def one_run():
            fleet = fleet_of(2, max_replicas=8, seed=23)
            scaler = Autoscaler(fleet, AutoscalerPolicy(
                period=0.050, high_watermark=3.0, low_watermark=0.5,
                cooldown=0.150))
            result = run_benchmark(fleet, EchoQSL(), settings,
                                   services=[scaler])
            return result, scaler

        (res_a, sc_a), (res_b, sc_b) = benchmark.pedantic(
            lambda: (one_run(), one_run()), rounds=1, iterations=1)

        ups = sum(1 for d in sc_a.trace if d.action == "up")
        downs = sum(1 for d in sc_a.trace if d.action == "down")
        print(f"\n  trace: {len(sc_a.trace)} ticks, "
              f"{ups} up, {downs} down; valid={res_a.valid}")

        assert sc_a.trace == sc_b.trace
        assert run_fingerprint(res_a) == run_fingerprint(res_b)
        # The burst actually forced scaling decisions worth comparing.
        assert ups > 0
