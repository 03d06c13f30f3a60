"""A sweep probe is a function ``qps -> SweepProbe``; whatever it builds,
it closes - also when the run, or anything after it, raises."""

import pytest

from repro.cli import main
from repro.core import Scenario, TestSettings
from repro.core.sut import SutBase
from repro.fleet import SweepConfig, SweepHarness, SweepProbe
from repro.harness import stack

from tests.conftest import EchoQSL

SETTINGS = TestSettings(
    scenario=Scenario.SERVER, server_target_qps=1.0,
    server_latency_bound=0.05, min_query_count=10, min_duration=0.0)


def test_a_given_probe_replaces_the_fresh_sut_run():
    asked = []

    def probe(qps):
        asked.append(qps)
        return SweepProbe(qps, qps <= 30.0, 0.001, 10, ())

    result = SweepHarness(
        None, None, SETTINGS,
        SweepConfig(qps_low=10.0, qps_high=50.0, resolution=10.0),
        probe=probe).run()
    assert asked == [10.0, 50.0, 30.0, 40.0]
    assert [p.qps for p in result.probes] == asked
    assert result.max_qps == 30.0


class BrokenSUT(SutBase):
    closed = 0

    def start_run(self, loop, responder):
        raise RuntimeError("backend never came up")

    def close(self):
        BrokenSUT.closed += 1


def test_default_probe_closes_the_sut_of_a_run_that_raised():
    harness = SweepHarness(lambda: BrokenSUT("broken"), EchoQSL(), SETTINGS)
    with pytest.raises(RuntimeError, match="never came up"):
        harness.run()
    assert BrokenSUT.closed == 1


@pytest.mark.parametrize("failing", ["run_benchmark", "cache_audit"])
def test_cli_probe_closes_its_stack_when_anything_after_build_raises(
        monkeypatch, failing):
    closed = []
    close = stack.Stack.close

    def boom(*args, **kwargs):
        raise RuntimeError(f"{failing} failed")

    monkeypatch.setattr(stack.Stack, "close",
                        lambda self: (closed.append(self), close(self)))
    if failing == "run_benchmark":
        monkeypatch.setattr(stack, "run_benchmark", boom)
    else:
        monkeypatch.setattr(stack.Stack, "cache_audit", boom)
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        main(["sweep", "--workload", "session", "--sessions", "8",
              "--replicas", "2", "--qps-high", "80", "--resolution", "40"])
    assert len(closed) == 1  # the probe in flight; no second probe ran
