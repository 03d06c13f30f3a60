"""What the capacity searches probe, in which order, and how they end.

Each search is run against a fake whose verdict is ``x <= c`` - no
LoadGen run - and the exact sequence of probed values, the returned
value and the ending (``None`` / value / ``RuntimeError``) are compared
with ``search_contract.json`` over a grid of ``c``: below the floor,
between floor and start, at the start, between two bracket steps,
exactly on a bracket step, above the ceiling / ``qps_high`` and never
failing within the probe budget.  The four searches are
``find_max_server_qps``, ``find_max_multistream_n``,
``find_max_burst_rate`` and ``SweepHarness`` in binary mode; the step
scan is the fifth row because the binary mode is tested against it.
The start, floor and probe budget of the Server and burst searches are
constants of ``repro.harness.tuning``; the grid patches them per case.

Beside the fakes, two real searches at seed 0 pin ``TunedResult.value``
and ``.probes``, so "probes per search not higher" is a tier-1 fact.

Re-record after a deliberate change with
``PYTHONPATH=src python -m tests.harness.test_search_contract``.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import Scenario, Task, TestSettings
from repro.fleet import SweepConfig, SweepHarness, sweep
from repro.harness import experiments, tuning
from repro.harness.tuning import (
    RunScale,
    find_max_burst_rate,
    find_max_multistream_n,
    find_max_server_qps,
)
from repro.sut.fleet import build_fleet

RECORDED = Path(__file__).with_name("search_contract.json")
INF = math.inf
TASK = Task.IMAGE_CLASSIFICATION_HEAVY


class FakeSUT:
    closed = 0

    def close(self):
        FakeSUT.closed += 1


def fake_result(valid):
    """The part of a ``LoadGenResult`` the searches read."""
    return SimpleNamespace(
        valid=valid,
        log=SimpleNamespace(completed_records=lambda: [],
                            latencies=lambda: [], completed_count=0),
        metrics=SimpleNamespace(latency_p99=0.0),
        validity=SimpleNamespace(reasons=[] if valid else ["over capacity"]),
    )


def fake_run(calls, axis, c):
    """A stand-in for ``run_benchmark(sut, qsl, settings, ...)``: notes
    ``settings.<axis>`` (and the seed) and is valid up to ``c``."""
    def run(sut, qsl, settings, **_):
        value = getattr(settings, axis)
        calls.append((value, settings.seed))
        return fake_result(value <= c)
    return run


def ending(search):
    """``(returned, raised)`` of a search, JSON-ready."""
    try:
        found = search()
    except RuntimeError as error:
        return None, str(error)
    return found, None


# -- the five searches, each as (probed values, returned, raised) -----------

def server(monkeypatch, c, start_qps=10.0, max_probes=40):
    calls = []
    monkeypatch.setattr(tuning, "run_benchmark",
                        fake_run(calls, "server_target_qps", c))
    monkeypatch.setattr(tuning, "START_QPS", start_qps)
    monkeypatch.setattr(tuning, "MIN_RATE", 0.1)
    monkeypatch.setattr(tuning, "MAX_PROBES", max_probes)
    tuned, raised = ending(lambda: find_max_server_qps(
        FakeSUT, None, TASK, RunScale(server_runs=1), seed=0))
    if tuned is not None:
        assert tuned.probes == len(calls)
        assert tuned.result.valid
        tuned = tuned.value
    return [qps for qps, _ in calls], tuned, raised


def multistream(monkeypatch, c, max_n=64):
    calls = []
    monkeypatch.setattr(tuning, "run_benchmark",
                        fake_run(calls, "multistream_samples_per_query", c))
    tuned = find_max_multistream_n(FakeSUT, None, TASK, RunScale(),
                                   max_n=max_n, seed=0)
    if tuned is not None:
        assert tuned.probes == len(calls)
        assert tuned.result.valid
        assert isinstance(tuned.value, float)
        tuned = tuned.value
    return [n for n, _ in calls], tuned, None


BURST = TestSettings(scenario=Scenario.SERVER, task=TASK, server_burst_size=4,
                     server_target_qps=40.0, server_latency_bound=0.02,
                     min_query_count=77, min_duration=0.5, seed=9)


def burst(monkeypatch, c, max_probes=30):
    """Probed in bursts/s, as ``find_max_burst_rate`` steps; returned in
    queries/s."""
    probed = []

    def run(sut, qsl, settings):
        probed.append(settings)
        return fake_result(
            settings.server_target_qps / settings.server_burst_size <= c)

    monkeypatch.setattr(tuning, "run_benchmark", run)
    monkeypatch.setattr(tuning, "MIN_RATE", 0.1)
    monkeypatch.setattr(tuning, "BURST_MAX_PROBES", max_probes)
    found = find_max_burst_rate(FakeSUT, None, BURST)
    rates = [settings.server_target_qps / 4 for settings in probed]
    # Every probe is the caller's settings at another rate, nothing else.
    assert probed == [BURST.with_overrides(server_target_qps=4 * rate)
                      for rate in rates]
    return rates, found, None


def swept(monkeypatch, c, mode, max_probes=32):
    calls = []
    monkeypatch.setattr(sweep, "run_benchmark",
                        fake_run(calls, "server_target_qps", c))
    settings = TestSettings(scenario=Scenario.SERVER, server_target_qps=1.0,
                            server_latency_bound=0.05, min_query_count=1)
    closed = FakeSUT.closed
    result = SweepHarness(FakeSUT, None, settings, SweepConfig(
        qps_low=10.0, qps_high=100.0, resolution=5.0, mode=mode,
        max_probes=max_probes)).run()
    probed = [qps for qps, _ in calls]
    assert [p.qps for p in result.probes] == probed
    assert [p.valid for p in result.probes] == [qps <= c for qps in probed]
    assert FakeSUT.closed - closed == len(probed)  # a fresh SUT each, closed
    return probed, result.max_qps, None


def binary(monkeypatch, c, **kwargs):
    return swept(monkeypatch, c, "binary", **kwargs)


def step(monkeypatch, c, **kwargs):
    return swept(monkeypatch, c, "step", **kwargs)


#: ``case id -> (search, c, keyword arguments)``.
CASES = {
    # x4 bracket from 10 down to the 0.1 floor / up; sqrt midpoints.
    "server_below_floor": (server, 0.05, {}),
    "server_between_floor_and_start": (server, 0.5, {}),
    "server_at_start": (server, 10.0, {}),
    "server_between_bracket_steps": (server, 100.0, {}),
    "server_on_bracket_step": (server, 160.0, {}),
    "server_just_below_bracket_step": (server, 159.0, {}),
    "server_never_fails": (server, INF, {"max_probes": 6}),
    "server_budget_ends_the_bisection": (server, 100.0, {"max_probes": 5}),
    "server_budget_ends_the_shrink": (server, 0.05, {"max_probes": 3}),
    "server_one_probe_valid": (server, 100.0, {"max_probes": 1}),
    "server_default_start": (server, 234.0, {"start_qps": 1.0}),
    # x2 growth from 1 to the cap; integer midpoints.
    "multistream_nothing_valid": (multistream, 0, {}),
    "multistream_at_start": (multistream, 1, {}),
    "multistream_between_bracket_steps": (multistream, 23, {}),
    "multistream_on_bracket_step": (multistream, 16, {}),
    "multistream_just_below_bracket_step": (multistream, 31, {}),
    "multistream_at_the_cap": (multistream, 64, {}),
    "multistream_above_the_cap": (multistream, 1000, {}),
    "multistream_never_fails": (multistream, INF, {"max_n": 4096}),
    "multistream_cap_of_one": (multistream, INF, {"max_n": 1}),
    "multistream_table_vi_cap": (multistream, 300, {"max_n": 512}),
    # the Server search again, ending in the last valid rate.
    "burst_below_floor": (burst, 0.05, {}),
    "burst_between_floor_and_start": (burst, 0.5, {}),
    "burst_at_start": (burst, 10.0, {}),
    "burst_between_bracket_steps": (burst, 100.0, {}),
    "burst_on_bracket_step": (burst, 160.0, {}),
    "burst_never_fails": (burst, INF, {"max_probes": 6}),
    "burst_budget_ends_the_bisection": (burst, 100.0, {"max_probes": 5}),
    # bracket [10, 100] given; arithmetic midpoints to 5 qps.
    "binary_below_the_bracket": (binary, 5.0, {}),
    "binary_at_qps_low": (binary, 10.0, {}),
    "binary_inside": (binary, 42.0, {}),
    "binary_on_a_midpoint": (binary, 55.0, {}),
    "binary_just_below_qps_high": (binary, 99.0, {}),
    "binary_at_qps_high": (binary, 100.0, {}),
    "binary_above_qps_high": (binary, INF, {}),
    "binary_budget_ends_the_bisection": (binary, 42.0, {"max_probes": 4}),
    "binary_budget_of_two": (binary, 42.0, {"max_probes": 2}),
    # the reference walk: qps_low upward in 5 qps steps.
    "step_below_the_bracket": (step, 5.0, {}),
    "step_at_qps_low": (step, 10.0, {}),
    "step_inside": (step, 42.0, {}),
    "step_at_qps_high": (step, 100.0, {}),
    "step_above_qps_high": (step, INF, {}),
    "step_budget_ends_the_walk": (step, 42.0, {"max_probes": 4}),
}


def observed(monkeypatch, case):
    search, c, kwargs = CASES[case]
    probed, returned, raised = search(monkeypatch, c, **kwargs)
    return {"probed": probed, "returned": returned, "raised": raised}


@pytest.mark.parametrize("case", CASES)
def test_probe_sequence_and_ending(monkeypatch, case):
    assert observed(monkeypatch, case) == json.loads(
        RECORDED.read_text())[case]


def test_recorded_cases_are_the_cases_run():
    assert sorted(json.loads(RECORDED.read_text())) == sorted(CASES)


# -- the Server probe: seed + run_index runs per rate -----------------------

def test_server_probe_runs_each_rate_at_consecutive_seeds(monkeypatch):
    calls = []
    monkeypatch.setattr(tuning, "run_benchmark",
                        fake_run(calls, "server_target_qps", 25.0))
    monkeypatch.setattr(tuning, "START_QPS", 10.0)
    tuned = find_max_server_qps(
        FakeSUT, None, TASK, RunScale(server_runs=3),
        relative_tolerance=0.5, seed=100)
    # Three runs at a valid rate (seeds 100, 101, 102); an invalid rate
    # is abandoned after its first run.
    assert calls == [
        (10.0, 100), (10.0, 101), (10.0, 102),
        (40.0, 100),
        (20.0, 100), (20.0, 101), (20.0, 102),
        (math.sqrt(20.0 * 40.0), 100),
    ]
    assert (tuned.value, tuned.probes) == (20.0, 4)


def test_server_probe_stops_at_its_first_invalid_run(monkeypatch):
    calls = []

    def run(sut, qsl, settings):
        calls.append((settings.server_target_qps, settings.seed))
        # Valid up to 25 qps - except that the second run of 20 qps fails.
        return fake_result(settings.server_target_qps <= 25.0
                           and calls[-1] != (20.0, 101))

    monkeypatch.setattr(tuning, "run_benchmark", run)
    monkeypatch.setattr(tuning, "START_QPS", 10.0)
    tuned = find_max_server_qps(
        FakeSUT, None, TASK, RunScale(server_runs=3),
        relative_tolerance=0.5, seed=100)
    assert calls == [
        (10.0, 100), (10.0, 101), (10.0, 102),
        (40.0, 100),
        (20.0, 100), (20.0, 101),
        (math.sqrt(10.0 * 20.0), 100), (math.sqrt(10.0 * 20.0), 101),
        (math.sqrt(10.0 * 20.0), 102),
    ]
    assert (tuned.value, tuned.probes) == (math.sqrt(10.0 * 20.0), 4)


# -- real runs at seed 0 ----------------------------------------------------

@pytest.mark.parametrize("system, task, scenario, value, probes", [
    ("dc-cpu-xeon", Task.MACHINE_TRANSLATION, Scenario.SERVER,
     234.75303506039583, 9),
    ("edge-gpu", Task.IMAGE_CLASSIFICATION_HEAVY, Scenario.MULTI_STREAM,
     2.0, 4),
])
def test_real_submission_value_and_probe_count(
        monkeypatch, system, task, scenario, value, probes):
    tuned = []
    for name in ("find_max_server_qps", "find_max_multistream_n"):
        def spy(*args, _search=getattr(experiments, name), **kwargs):
            tuned.append(_search(*args, **kwargs))
            return tuned[-1]
        monkeypatch.setattr(experiments, name, spy)
    [fleet_system] = [s for s in build_fleet() if s.name == system]
    record = experiments.run_submission(fleet_system, task, scenario, seed=0)
    assert record.metric == value
    assert [(t.value, t.probes) for t in tuned] == [(value, probes)]
    assert tuned[0].result.valid


def _record_contract():
    monkeypatch = pytest.MonkeyPatch()
    try:
        recorded = {case: observed(monkeypatch, case) for case in CASES}
    finally:
        monkeypatch.undo()
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases in {RECORDED}")


if __name__ == "__main__":
    _record_contract()
