"""Extension: fault-injection degradation study.

The referee-hardening counterpart of the paper's audit story (Section V):
instead of trusting submitters, the LoadGen is driven against SUTs that
misbehave at a controlled, seeded rate, and we measure

* hang-safety - every (fault class x scenario) run terminates within the
  watchdog bound and yields the correct INVALID verdict;
* graceful degradation - as the fault rate rises, the fraction of
  anomalous queries tracks it, and the verdict flips from VALID to
  INVALID exactly when the first fault lands;
* recoverability - wrapping the same flaky SUT in ``ResilientSUT`` turns
  transient-only fault runs VALID again, at a measurable retry-latency
  overhead;
* determinism - a (seed, FaultPlan) pair reproduces the identical fault
  trace, query log, and verdict.
"""

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.faults import (
    FaultPlan,
    FaultType,
    FaultySUT,
    ResilientSUT,
    RetryPolicy,
)

from tests.conftest import EchoQSL, FixedLatencySUT

WATCHDOG = 60.0
SERVICE_TIME = 0.005
FAULT_RATES = (0.0, 0.02, 0.10, 0.25)
#: The paper's four (Table II); ``settings_for`` has no session settings,
#: and a session run under Offline settings stalls with no fault at all.
PAPER_SCENARIOS = (Scenario.SINGLE_STREAM, Scenario.MULTI_STREAM,
                   Scenario.SERVER, Scenario.OFFLINE)


def settings_for(scenario, queries=120):
    common = dict(min_duration=0.0, watchdog_timeout=WATCHDOG)
    if scenario is Scenario.SINGLE_STREAM:
        return TestSettings(scenario=scenario, min_query_count=queries,
                            **common)
    if scenario is Scenario.SERVER:
        return TestSettings(scenario=scenario, server_target_qps=150.0,
                            server_latency_bound=0.05,
                            min_query_count=queries, **common)
    if scenario is Scenario.MULTI_STREAM:
        return TestSettings(scenario=scenario, multistream_interval=0.02,
                            multistream_samples_per_query=2,
                            min_query_count=queries, **common)
    return TestSettings(scenario=scenario, offline_sample_count=queries,
                        **common)


def run_faulty(scenario, plan, queries=120):
    sut = FaultySUT(FixedLatencySUT(SERVICE_TIME), plan)
    result = run_benchmark(
        sut, EchoQSL(total=512), settings_for(scenario, queries))
    return result, sut


@pytest.fixture(scope="module")
def degradation_sweep():
    """verdict + anomaly counts over fault rate x scenario."""
    grid = {}
    for scenario in PAPER_SCENARIOS:
        for rate in FAULT_RATES:
            plan = FaultPlan(
                rates={FaultType.DUPLICATE: rate / 2,
                       FaultType.MISSIZED: rate / 2},
                seed=31 + int(rate * 1000),
            )
            result, sut = run_faulty(scenario, plan)
            injected = sum(sut.injector.injected.values())
            grid[scenario, rate] = (result, injected)
    return grid


class TestDegradationSweep:
    def test_every_run_terminates(self, benchmark, degradation_sweep):
        grid = benchmark.pedantic(lambda: degradation_sweep,
                                  rounds=1, iterations=1)
        print("\n  scenario        rate   injected  anomalies  verdict")
        for (scenario, rate), (result, injected) in sorted(
                grid.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
            print(f"  {scenario.value:14s} {rate:5.0%} {injected:9d} "
                  f"{result.log.anomaly_count:10d}  "
                  f"{'VALID' if result.valid else 'INVALID'}")
        for (scenario, rate), (result, _) in grid.items():
            assert result is not None
            assert result.stats.watchdog_time <= WATCHDOG

    def test_verdict_flips_exactly_when_faults_land(self, degradation_sweep):
        for (scenario, rate), (result, injected) in degradation_sweep.items():
            if injected == 0:
                assert result.valid, (
                    scenario, rate, result.validity.reasons)
            else:
                assert not result.valid, (scenario, rate)

    def test_anomalies_track_injections(self, degradation_sweep):
        for (_, _), (result, injected) in degradation_sweep.items():
            # Each duplicate or missized fault leaves exactly one trace.
            assert result.log.anomaly_count == injected


class TestHangSafetyMatrix:
    """Full 100%-rate matrix, same contract as the tier-1 chaos smoke
    but at benchmark scale (more queries per run)."""

    EXPECTED = {
        FaultType.DROP: "never completed",
        FaultType.DUPLICATE: "duplicate completions",
        FaultType.UNSOLICITED: "unsolicited responses",
        FaultType.MISSIZED: "malformed responses",
        FaultType.CORRUPT: "malformed responses",
        FaultType.DELAY: "watchdog fired",
        FaultType.STALL: "never completed",
    }

    @pytest.mark.parametrize("fault", list(FaultType), ids=lambda f: f.value)
    def test_total_rate_is_hang_safe(self, fault):
        kwargs = {"delay_scale": 1e6} if fault is FaultType.DELAY else {}
        for scenario in Scenario:
            result, _ = run_faulty(
                scenario, FaultPlan.single(fault, 1.0, **kwargs), queries=24)
            assert not result.valid
            assert any(self.EXPECTED[fault] in r
                       for r in result.validity.reasons), (
                scenario, result.validity.reasons)


class TestResilienceRecovery:
    @pytest.fixture(scope="class")
    def recovery_runs(self):
        """Same transient-only flaky backend, bare vs wrapped."""
        plan = FaultPlan.transient(0.025, seed=77)   # 5% total, recoverable
        policy = RetryPolicy(max_attempts=4, attempt_timeout=0.150,
                             backoff_base=0.002)
        settings = settings_for(Scenario.SINGLE_STREAM, queries=200)

        baseline = run_benchmark(
            FixedLatencySUT(SERVICE_TIME), EchoQSL(total=512), settings)
        bare, _ = run_faulty(Scenario.SINGLE_STREAM, plan, queries=200)
        wrapped_sut = ResilientSUT(
            FaultySUT(FixedLatencySUT(SERVICE_TIME), plan), policy)
        wrapped = run_benchmark(wrapped_sut, EchoQSL(total=512), settings)
        return baseline, bare, wrapped, wrapped_sut

    def test_transient_faults_recovered_to_valid(
            self, benchmark, recovery_runs):
        baseline, bare, wrapped, sut = benchmark.pedantic(
            lambda: recovery_runs, rounds=1, iterations=1)

        def mean(result):
            latencies = result.log.latencies()
            return sum(latencies) / len(latencies)

        print(f"\n  bare flaky SUT   : "
              f"{'VALID' if bare.valid else 'INVALID'} "
              f"({'; '.join(bare.validity.reasons) or 'clean'})")
        print(f"  wrapped in retry : "
              f"{'VALID' if wrapped.valid else 'INVALID'}  "
              f"{sut.stats.summary()}")
        print(f"  p90 latency      : baseline {baseline.primary_metric*1e3:.2f} ms, "
              f"wrapped {wrapped.primary_metric*1e3:.2f} ms")
        print(f"  mean latency     : baseline {mean(baseline)*1e3:.3f} ms, "
              f"wrapped {mean(wrapped)*1e3:.3f} ms "
              f"(retry overhead {(mean(wrapped)-mean(baseline))*1e3:+.3f} ms)")
        assert not bare.valid          # the raw flaky SUT fails the run
        assert wrapped.valid, wrapped.validity.reasons
        assert sut.stats.recovered_queries > 0
        assert sut.stats.gave_up_queries == 0

    def test_retry_overhead_is_bounded(self, recovery_runs):
        baseline, _bare, wrapped, sut = recovery_runs
        # Overhead is bounded by (timeout + backoff) per retry, amortized
        # over all queries; with a 5% fault rate it stays small.
        per_query_bound = (sut.policy.attempt_timeout
                          + sut.policy.backoff(sut.policy.max_attempts - 1))
        mean_baseline = (sum(baseline.log.latencies())
                         / len(baseline.log.latencies()))
        mean_wrapped = (sum(wrapped.log.latencies())
                        / len(wrapped.log.latencies()))
        mean_overhead = mean_wrapped - mean_baseline
        assert 0.0 <= mean_overhead < 0.15 * per_query_bound


class TestDeterminism:
    def test_same_seed_same_everything(self, benchmark):
        plan = FaultPlan.uniform(0.06, seed=123)

        def one(scenario):
            result, sut = run_faulty(scenario, plan, queries=80)
            return (sut.injector.trace, result.log.to_jsonl(),
                    result.valid, tuple(result.validity.reasons))

        def both():
            return {s: (one(s), one(s)) for s in Scenario}

        runs = benchmark.pedantic(both, rounds=1, iterations=1)
        for scenario, (first, second) in runs.items():
            assert first == second, f"nondeterminism in {scenario.value}"

    def test_different_seed_different_trace(self):
        a, sut_a = run_faulty(
            Scenario.SERVER, FaultPlan.uniform(0.06, seed=1), queries=80)
        b, sut_b = run_faulty(
            Scenario.SERVER, FaultPlan.uniform(0.06, seed=2), queries=80)
        assert sut_a.injector.trace != sut_b.injector.trace
