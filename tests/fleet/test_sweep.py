"""SweepHarness: capacity search against a modeled serial-queue SUT."""

import json

import pytest

from repro.core import Scenario, TestSettings
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.fleet import SweepConfig, SweepHarness

from tests.conftest import EchoQSL


class SerialQueueSUT(SutBase):
    """A modeled SUT with one worker and a fixed service time.

    Capacity is exactly ``1 / service_time`` qps; push the arrival rate
    past it and the queue (hence the latency) grows without bound -
    precisely the monotone validity the binary sweep relies on.
    """

    def __init__(self, service_time):
        super().__init__("serial-queue")
        self.service_time = service_time
        self._busy_until = 0.0

    def start_run(self, loop, responder):
        super().start_run(loop, responder)
        self._busy_until = 0.0

    def issue_query(self, query):
        start = max(self.loop.now, self._busy_until)
        self._busy_until = done = start + self.service_time
        responses = [
            QuerySampleResponse(s.id, s.index) for s in query.samples
        ]
        self.loop.schedule_after(
            done - self.loop.now, lambda: self.complete(query, responses))


def server_settings(bound, queries=200):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=1.0,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=600.0,
    )


def harness(service_time=0.010, bound=0.050, config=None):
    return SweepHarness(
        lambda: SerialQueueSUT(service_time), EchoQSL(),
        server_settings(bound), config)


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="qps_low"):
            SweepConfig(qps_low=0.0)
        with pytest.raises(ValueError, match="qps_high"):
            SweepConfig(qps_low=10.0, qps_high=10.0)
        with pytest.raises(ValueError, match="resolution"):
            SweepConfig(resolution=0.0)
        with pytest.raises(ValueError, match="mode"):
            SweepConfig(mode="newton")
        with pytest.raises(ValueError, match="max_probes"):
            SweepConfig(max_probes=1)

    def test_requires_server_scenario(self):
        settings = TestSettings(scenario=Scenario.OFFLINE,
                                min_query_count=1)
        with pytest.raises(ValueError, match="Server"):
            SweepHarness(lambda: SerialQueueSUT(0.01), EchoQSL(),
                         settings)


class TestBinarySearch:
    def test_agrees_with_step_scan_ground_truth(self):
        # The step scan IS the ground truth (first invalid rate, walked
        # exhaustively); binary must land within one step of it.
        binary = harness(config=SweepConfig(
            qps_low=20.0, qps_high=180.0, resolution=10.0,
            mode="binary")).run()
        step = harness(config=SweepConfig(
            qps_low=20.0, qps_high=180.0, resolution=10.0,
            mode="step")).run()
        assert binary.max_qps is not None
        assert step.max_qps is not None
        assert abs(binary.max_qps - step.max_qps) <= 10.0
        # And the found rate itself was probed valid.
        assert any(p.valid and p.qps == binary.max_qps
                   for p in binary.probes)

    def test_bracket_below_capacity_returns_high(self):
        config = SweepConfig(qps_low=10.0, qps_high=50.0,
                             resolution=5.0, mode="binary")
        result = harness(config=config).run()
        assert result.max_qps == 50.0
        assert len(result.probes) == 2  # low + high, no bisection

    def test_bracket_above_capacity_returns_none(self):
        config = SweepConfig(qps_low=500.0, qps_high=1000.0,
                             resolution=50.0, mode="binary")
        result = harness(config=config).run()
        assert result.max_qps is None
        assert len(result.probes) == 1  # qps_low already failed
        assert "below the bracket" in result.summary()

    def test_max_probes_caps_the_search(self):
        config = SweepConfig(qps_low=1.0, qps_high=4096.0,
                             resolution=0.001, mode="binary",
                             max_probes=6)
        result = harness(config=config).run()
        assert len(result.probes) <= 6
        assert result.max_qps is not None


class TestStepSearch:
    def test_walks_up_and_stops_at_the_first_invalid_rate(self):
        config = SweepConfig(qps_low=20.0, qps_high=300.0,
                             resolution=20.0, mode="step")
        result = harness(config=config).run()
        # Every probe but the last is valid; the walk stops at the
        # first invalid rate and reports the one below it.
        assert all(p.valid for p in result.probes[:-1])
        assert not result.probes[-1].valid
        assert result.max_qps == result.probes[-2].qps
        steps = [b.qps - a.qps
                 for a, b in zip(result.probes, result.probes[1:])]
        assert all(abs(s - 20.0) < 1e-9 for s in steps)

    def test_a_last_step_past_the_bracket_probes_its_top(self):
        # 20 does not divide [20, 50]: after 40 the walk probes 50
        # itself, as binary mode does, not 60.
        config = SweepConfig(qps_low=20.0, qps_high=50.0,
                             resolution=20.0, mode="step")
        result = harness(config=config).run()
        assert [p.qps for p in result.probes] == [20.0, 40.0, 50.0]
        assert result.max_qps == 50.0


class TestReport:
    def test_report_round_trips_as_json(self, tmp_path):
        config = SweepConfig(qps_low=50.0, qps_high=150.0,
                             resolution=25.0, mode="step")
        result = harness(config=config).run()
        path = result.write(tmp_path / "BENCH_fleet.json")
        doc = json.loads(path.read_text())
        assert doc["benchmark"] == "fleet-capacity-sweep"
        assert doc["max_valid_qps"] == result.max_qps
        assert doc["probe_count"] == len(result.probes)
        assert doc["slo"]["latency_bound_s"] == 0.050
        for entry, probe in zip(doc["probes"], result.probes):
            assert entry["qps"] == probe.qps
            assert entry["valid"] == probe.valid

    def test_a_session_sweep_without_a_bound_writes_null(self, tmp_path):
        settings = TestSettings(
            scenario=Scenario.SESSION, server_target_qps=1.0,
            session_count=8, session_think_time_mean=0.05,
            min_duration=0.0, watchdog_timeout=600.0)
        config = SweepConfig(qps_low=10.0, qps_high=30.0,
                             resolution=10.0, mode="step")
        result = SweepHarness(lambda: SerialQueueSUT(0.001), EchoQSL(),
                              settings, config).run()
        path = result.write(tmp_path / "BENCH_fleet.json")

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(path.read_text(), parse_constant=strict)
        assert doc["slo"]["latency_bound_s"] is None
        assert result.summary().endswith("probe runs, no latency bound)")

    def test_invalid_probes_carry_referee_reasons(self):
        config = SweepConfig(qps_low=500.0, qps_high=1000.0,
                             resolution=50.0, mode="binary")
        result = harness(config=config).run()
        failing = result.probes[0]
        assert not failing.valid
        assert failing.reasons  # the referee explains itself
