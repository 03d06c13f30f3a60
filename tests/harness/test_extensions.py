"""Experimental extensions: burst mode and multitenancy."""

import hashlib

import pytest

from repro.core import Scenario, Task, TestMode, TestSettings, run_benchmark
from repro.durability import RunJournal, resume_run
from repro.durability.resume import run_fingerprint
from repro.harness.multitenant import (
    TenantSpec,
    all_tenants_valid,
    run_multitenant,
)
from repro.harness.tuning import find_max_burst_rate
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.echo import EchoSUT
from repro.sut.fleet import task_workload
from repro.sut.simulated import SimulatedSUT, WorkloadProfile

from tests.harness.test_multitenant_contract import (  # noqa: F401
    DEVICE as CONTRACT_DEVICE,
    cost_calls,
    dispatch_trace,
)


class NullQSL:
    name = "ext"
    total_sample_count = 4096
    performance_sample_count = 1024

    def load_samples(self, indices):
        pass

    def unload_samples(self, indices):
        pass

    def get_sample(self, index):
        return None


def make_device(**kwargs):
    defaults = dict(
        name="ext-dev", processor=ProcessorType.GPU, peak_gops=40_000.0,
        base_utilization=0.06, saturation_gops=150.0, overhead=0.5e-3,
        max_batch=64,
        structure_efficiency={ComputeMotif.RNN: 0.3},
    )
    defaults.update(kwargs)
    return DeviceModel(**defaults)


class TestBurstSize:
    def test_one_query_per_arrival_by_default(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                task=Task.IMAGE_CLASSIFICATION_HEAVY)
        assert settings.server_burst_size == 1
        assert settings.resolved_server_latency_bound == 0.015

    def test_validation(self):
        with pytest.raises(ValueError, match="server_burst_size must be >= 1"):
            TestSettings(scenario=Scenario.SERVER, server_burst_size=0)
        with pytest.raises(ValueError, match="server scenario only"):
            TestSettings(scenario=Scenario.SESSION, server_burst_size=8)


class TestBurstRuns:
    def _burst(self, size=16, bursts_per_second=10.0):
        return TestSettings(
            scenario=Scenario.SERVER, task=Task.IMAGE_CLASSIFICATION_HEAVY,
            server_burst_size=size,
            server_target_qps=size * bursts_per_second,
            min_query_count=1_000, min_duration=1.5)

    def test_valid_run_at_low_rate(self):
        sut = SimulatedSUT(make_device(), WorkloadProfile(8.2))
        result = run_benchmark(sut, NullQSL(), self._burst())
        assert result.valid
        assert result.metrics.query_count >= 1_000

    def test_queries_arrive_in_bursts(self):
        sut = SimulatedSUT(make_device(), WorkloadProfile(8.2))
        result = run_benchmark(sut, NullQSL(), self._burst())
        issues = sorted(r.issue_time for r in result.log.records())
        # Within a burst, queries share an issue instant.
        same_instant = sum(
            1 for a, b in zip(issues, issues[1:]) if b - a < 1e-12)
        assert same_instant >= result.metrics.query_count * 0.8

    def test_overload_is_invalid(self):
        slow = make_device(peak_gops=400.0)
        sut = SimulatedSUT(slow, WorkloadProfile(8.2))
        result = run_benchmark(
            sut, NullQSL(), self._burst(bursts_per_second=100.0))
        assert not result.valid

    def test_a_journalled_burst_run_resumes_to_the_same_result(self, tmp_path):
        # Resume is exact over a backend whose timing is a function of
        # the query alone; a batching device re-times the resumed tail.
        path = tmp_path / "burst.rjnl"
        reference = run_fingerprint(run_benchmark(
            EchoSUT(latency=0.003), NullQSL(), self._burst(size=4),
            journal=RunJournal(path)))
        # A crash halfway through the journal, mid-frame.
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size // 2 + 3)
        resumed = resume_run(str(path), EchoSUT(latency=0.003), NullQSL())
        assert run_fingerprint(resumed) == reference

    @pytest.mark.slow
    def test_burst_capacity_below_smooth_server_capacity(self):
        """Bursty traffic at equal average rate is strictly harder than
        smooth Poisson arrivals."""
        from repro.harness.tuning import QUICK_SCALE, find_max_server_qps

        device = make_device()
        workload = WorkloadProfile(8.2)
        smooth = find_max_server_qps(
            lambda: SimulatedSUT(device, workload), NullQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        bursty = find_max_burst_rate(
            lambda: SimulatedSUT(device, workload), NullQSL(),
            self._burst(size=16))
        assert bursty is not None
        assert bursty < smooth.value

    def test_oversized_bursts_can_never_qualify(self):
        """A burst whose minimum service time exceeds the bound fails
        at every rate - burst size itself is a latency floor."""
        rate = find_max_burst_rate(
            lambda: SimulatedSUT(make_device(), WorkloadProfile(8.2)),
            NullQSL(), self._burst(size=64))
        assert rate is None

    def test_hopeless_bound_returns_none(self):
        glacial = make_device(peak_gops=50.0)
        rate = find_max_burst_rate(
            lambda: SimulatedSUT(glacial, WorkloadProfile(8.2)), NullQSL(),
            self._burst())
        assert rate is None


def tenant(name, task, qps, seed=0):
    return TenantSpec(
        name=name,
        workload=task_workload(task),
        settings=TestSettings(
            scenario=Scenario.SERVER, task=task, server_target_qps=qps,
            min_query_count=800, min_duration=1.0, seed=seed,
        ),
    )


class TestMultiTenant:
    def test_two_light_tenants_both_valid(self):
        results = run_multitenant(make_device(), [
            tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 500.0),
            tenant("mobilenet", Task.IMAGE_CLASSIFICATION_LIGHT, 500.0,
                   seed=5),
        ])
        assert set(results) == {"resnet", "mobilenet"}
        assert all_tenants_valid(results)

    def test_tenants_validated_independently(self):
        """An overloaded tenant fails its own QoS; the light one is
        degraded by interference but may still qualify."""
        results = run_multitenant(make_device(), [
            tenant("greedy", Task.IMAGE_CLASSIFICATION_HEAVY, 50_000.0),
            tenant("modest", Task.IMAGE_CLASSIFICATION_LIGHT, 50.0, seed=5),
        ])
        assert not results["greedy"].valid

    def test_colocation_interference(self):
        """A rate that is comfortable alone fails when co-located with a
        heavy neighbour - the QoS-maintenance challenge the paper's
        multitenancy mode is about."""
        device = make_device()
        rate = 3_000.0
        alone = run_multitenant(device, [
            tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, rate),
        ])
        assert alone["resnet"].valid

        together = run_multitenant(device, [
            tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, rate),
            tenant("gnmt", Task.MACHINE_TRANSLATION, 600.0, seed=9),
        ])
        resnet = together["resnet"]
        assert (not resnet.valid) or (
            resnet.metrics.latency_p99
            > alone["resnet"].metrics.latency_p99)

    def test_batches_never_mix_tenants(self, cost_calls):
        """A dispatch is priced as its head chunk's tenant, so each
        tenant's dispatched samples sum to exactly the samples it
        issued only if no dispatch carries another tenant's chunks."""
        device = make_device(
            structure_efficiency={ComputeMotif.DEPTHWISE_CNN: 0.35})
        tenants = [
            tenant("a", Task.IMAGE_CLASSIFICATION_HEAVY, 3_000.0),
            tenant("b", Task.IMAGE_CLASSIFICATION_LIGHT, 3_000.0, seed=5),
        ]
        results = run_multitenant(device, tenants)
        dispatched = {spec.name: 0 for spec in tenants}
        for name, samples in dispatch_trace(device, tenants, cost_calls):
            dispatched[name] += samples
        assert dispatched == {
            name: sum(record.query.sample_count
                      for record in result.log.completed_records())
            for name, result in results.items()}
        assert all(r.log.outstanding == 0 for r in results.values())

    def test_tenants_run_on_the_cold_device_boost(self):
        """Tenants share the one device engine, DVFS included: a cold
        device (Section III-D) serves a tenant faster than one at
        equilibrium."""
        spec = TenantSpec("resnet",
                          task_workload(Task.IMAGE_CLASSIFICATION_HEAVY),
                          TestSettings(scenario=Scenario.SERVER,
                                       task=Task.IMAGE_CLASSIFICATION_HEAVY,
                                       server_target_qps=300.0,
                                       min_query_count=300, min_duration=0.5,
                                       seed=3))
        p99 = {boost: run_multitenant(make_device(cold_boost=boost), [spec])[
            "resnet"].metrics.latency_p99 for boost in (1.0, 3.0)}
        assert p99[3.0] < p99[1.0]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            run_multitenant(make_device(), [
                tenant("x", Task.IMAGE_CLASSIFICATION_HEAVY, 10.0),
                tenant("x", Task.IMAGE_CLASSIFICATION_LIGHT, 10.0),
            ])

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(ValueError):
            run_multitenant(make_device(), [])

    def test_accuracy_mode_rejected(self):
        spec = TenantSpec(
            name="acc", workload=task_workload(Task.IMAGE_CLASSIFICATION_HEAVY),
            settings=TestSettings(scenario=Scenario.SERVER,
                                  task=Task.IMAGE_CLASSIFICATION_HEAVY,
                                  mode=TestMode.ACCURACY),
        )
        with pytest.raises(ValueError):
            run_multitenant(make_device(), [spec])


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestMultiTenantPinned:
    """Two tenants on one two-engine device, as literals: what every
    tenant's log says and what the shared device dispatched, in order
    (its ``cost_at`` calls).  GNMT's variable cost makes the device
    draw from its generator and split nothing; the 96-sample
    multistream tenant is chunked."""

    def test_fingerprints_and_dispatch_trace(self, cost_calls):
        chunked = TenantSpec(
            name="mobilenet",
            workload=task_workload(Task.IMAGE_CLASSIFICATION_LIGHT),
            settings=TestSettings(
                scenario=Scenario.MULTI_STREAM,
                task=Task.IMAGE_CLASSIFICATION_LIGHT,
                multistream_samples_per_query=96, min_query_count=40,
                min_duration=1.0, seed=5))
        device = make_device(max_batch=40, engines=2)
        tenants = [
            tenant("gnmt", Task.MACHINE_TRANSLATION, 300.0, seed=9),
            chunked,
        ]
        results = run_multitenant(device, tenants)
        trace = dispatch_trace(device, tenants, cost_calls)
        assert {name: digest(run_fingerprint(result))
                for name, result in results.items()} == {
            "gnmt": "32400faac42db457",
            "mobilenet": "88dc4768358334ac",
        }
        assert (len(trace), digest(trace)) == (670, "5f972c1e6d99ea0f")
        assert digest(cost_calls) == "fa271cfdf4d9fcc6"
        assert [trace.count(kind) for kind in (
            ("gnmt", 1), ("gnmt", 3), ("mobilenet", 40), ("mobilenet", 16),
        )] == [412, 37, 80, 40]


class TestMultiTenantWatchdog:
    """Tenants run on ``run_benchmark``'s own loop, watchdog included;
    the loop is shared, so a tenant's watchdog stops every tenant."""

    @staticmethod
    def resnet(**overrides):
        return TenantSpec(
            "resnet", task_workload(Task.IMAGE_CLASSIFICATION_HEAVY),
            TestSettings(scenario=Scenario.SERVER,
                         task=Task.IMAGE_CLASSIFICATION_HEAVY,
                         server_target_qps=300.0, min_query_count=300,
                         min_duration=1.0, seed=3, **overrides))

    def test_a_tenant_watchdog_ends_the_run_invalid(self):
        result = run_multitenant(
            CONTRACT_DEVICE, [self.resnet(watchdog_timeout=0.2)])["resnet"]
        assert result.stats.watchdog_fired
        assert result.stats.watchdog_time == pytest.approx(0.2)
        assert not result.valid
        assert result.metrics.duration < 0.25

    def test_it_stops_its_co_tenants_too(self):
        results = run_multitenant(CONTRACT_DEVICE, [
            tenant("gnmt", Task.MACHINE_TRANSLATION, 100.0, seed=9),
            self.resnet(watchdog_timeout=0.2),
        ])
        gnmt = results["gnmt"]
        assert not gnmt.stats.watchdog_fired
        assert results["resnet"].stats.watchdog_fired
        assert max(r.issue_time for r in gnmt.log.records()) < 0.2
        assert not gnmt.valid  # judged on what it logged by then


class TestMultiTenantSeedIsolation:
    """Back-to-back multitenant runs in one process must replay the
    same per-tenant arrival schedules (ISSUE 4 satellite: the arrival
    SeedSequence is rebuilt per driver, never shared or continued)."""

    def _issue_times(self):
        results = run_multitenant(make_device(), [
            tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 500.0),
            tenant("mobilenet", Task.IMAGE_CLASSIFICATION_LIGHT, 500.0,
                   seed=5),
        ])
        return {
            name: [r.issue_time for r in result.log.completed_records()]
            for name, result in results.items()
        }

    def test_sequential_runs_reproduce_arrivals(self):
        first = self._issue_times()
        second = self._issue_times()
        assert first == second
        # Different tenant seeds produced genuinely different traffic.
        assert first["resnet"] != first["mobilenet"]
