"""Capacity searches against devices with known analytic limits."""

import pytest

from repro.core import Scenario, Task, TestSettings, run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.harness.tuning import (
    FULL_SCALE,
    QUICK_SCALE,
    RunScale,
    _is_stationary,
    find_max_multistream_n,
    find_max_server_qps,
    measure_offline,
    measure_single_stream,
)
from repro.sut.device import DeviceModel, ProcessorType
from repro.sut.simulated import SimulatedSUT, WorkloadProfile

from tests.conftest import EchoQSL


def make_device(**kwargs):
    defaults = dict(
        name="dev", processor=ProcessorType.GPU, peak_gops=10_000.0,
        base_utilization=0.5, saturation_gops=20.0, overhead=0.5e-3,
        max_batch=16,
    )
    defaults.update(kwargs)
    return DeviceModel(**defaults)


def sut_factory(device=None, workload=None):
    device = device or make_device()
    workload = workload or WorkloadProfile(8.2)
    return lambda: SimulatedSUT(device, workload)


class TestRunScale:
    def test_full_scale_preserves_rule_minimums(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                task=Task.IMAGE_CLASSIFICATION_HEAVY)
        scaled = FULL_SCALE.apply(settings)
        assert scaled.resolved_min_query_count == 270_336
        assert scaled.resolved_min_duration == 60.0

    def test_quick_scale_shrinks_but_keeps_structure(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                task=Task.IMAGE_CLASSIFICATION_HEAVY)
        scaled = QUICK_SCALE.apply(settings)
        assert scaled.resolved_min_query_count == 270_336 // 64
        assert scaled.resolved_min_duration == 2.0
        # The latency bound is untouched - only statistical weight shrinks.
        assert scaled.resolved_server_latency_bound == 0.015

    def test_offline_floor(self):
        settings = TestSettings(scenario=Scenario.OFFLINE,
                                task=Task.IMAGE_CLASSIFICATION_HEAVY)
        scaled = RunScale(query_count_factor=1e-6).apply(settings)
        assert scaled.resolved_offline_samples == 1024


class TestSingleStreamAndOffline:
    def test_single_stream_latency_matches_device(self):
        device = make_device()
        result = measure_single_stream(
            sut_factory(device), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert result.valid
        expected = device.service_time(8.2, 1)
        assert result.primary_metric == pytest.approx(expected, rel=0.01)

    def test_offline_throughput_near_best_batch(self):
        device = make_device()
        result = measure_offline(
            sut_factory(device), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert result.valid
        best = device.best_offline_throughput(8.2)
        assert result.primary_metric == pytest.approx(best, rel=0.10)


class TestServerSearch:
    def test_found_capacity_below_offline_and_substantial(self):
        device = make_device()
        tuned = find_max_server_qps(
            sut_factory(device), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert tuned is not None
        offline = device.best_offline_throughput(8.2)
        assert 0.2 * offline < tuned.value <= offline * 1.02
        assert tuned.result.valid

    def test_impossible_bound_returns_none(self):
        # Service time at batch 1 exceeds the 15 ms ResNet bound.
        slow = make_device(peak_gops=100.0)
        tuned = find_max_server_qps(
            sut_factory(slow), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert tuned is None

    @pytest.mark.slow
    def test_search_is_reproducible(self):
        device = make_device()
        a = find_max_server_qps(sut_factory(device), EchoQSL(),
                                Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        b = find_max_server_qps(sut_factory(device), EchoQSL(),
                                Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert a.value == b.value


class TestMultiStreamSearch:
    @pytest.mark.slow
    def test_found_n_matches_interval_capacity(self):
        device = make_device()
        tuned = find_max_multistream_n(
            sut_factory(device), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert tuned is not None
        n = int(tuned.value)
        interval = 0.050
        # One more stream must not fit in the interval.
        assert device.service_time(8.2, min(n, device.max_batch)) <= interval
        # Sanity: servicing N+1 samples (possibly two dispatches) takes
        # longer than the interval, so N is genuinely maximal-ish.
        assert n >= 1

    def test_hopeless_system_returns_none(self):
        slow = make_device(peak_gops=50.0)
        tuned = find_max_multistream_n(
            sut_factory(slow), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE)
        assert tuned is None

    def test_max_n_cap_respected(self):
        fast = make_device(peak_gops=1e7, max_batch=100_000)
        tuned = find_max_multistream_n(
            sut_factory(fast), EchoQSL(),
            Task.IMAGE_CLASSIFICATION_HEAVY, QUICK_SCALE, max_n=16)
        assert tuned.value == 16


class SeesawSUT(SutBase):
    """Even queries take ``slow`` seconds, odd ones ``fast``: at any
    arrival rate above ``1 / slow`` completions overtake each other.
    ``ramp`` adds that much latency per query issued - a growing queue."""

    def __init__(self, slow=0.020, fast=0.001, ramp=0.0):
        super().__init__("seesaw")
        self.slow, self.fast, self.ramp = slow, fast, ramp

    def issue_query(self, query):
        delay = self.fast if query.id % 2 else self.slow
        delay += self.ramp * query.id
        responses = [QuerySampleResponse(s.id, None) for s in query.samples]
        self.loop.schedule_after(
            delay, lambda: self.complete(query, responses))


class TestStationarity:
    SETTINGS = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=2_000.0,
        server_latency_bound=10.0, min_query_count=400, min_duration=0.0)

    def test_completed_records_are_issue_ordered(self):
        """``_is_stationary`` takes its first and last deciles by issue
        order straight from the log."""
        result = run_benchmark(SeesawSUT(), EchoQSL(), self.SETTINGS)
        records = result.log.completed_records()
        completions = [r.completion_time for r in records]
        assert completions != sorted(completions)  # they did overtake
        issues = [r.issue_time for r in records]
        assert issues == sorted(issues)
        assert [r.query.id for r in records] == sorted(
            r.query.id for r in records)

    @pytest.mark.parametrize("ramp, verdict", [(0.0, True), (1e-4, False)])
    def test_verdict_compares_first_and_last_issue_deciles(
            self, ramp, verdict):
        result = run_benchmark(SeesawSUT(ramp=ramp), EchoQSL(), self.SETTINGS)
        assert _is_stationary(result, bound=0.015) is verdict
        # The rule, spelled out over an explicit sort by issue time.
        records = sorted(result.log.completed_records(),
                         key=lambda r: r.issue_time)
        first = sum(r.latency for r in records[:40]) / 40
        last = sum(r.latency for r in records[-40:]) / 40
        assert (last <= 2.0 * first + 0.05 * 0.015) is verdict

    def test_short_runs_are_taken_as_stationary(self):
        result = run_benchmark(
            SeesawSUT(ramp=1e-3), EchoQSL(),
            self.SETTINGS.with_overrides(min_query_count=99))
        assert _is_stationary(result, bound=0.015)
