"""Search harnesses for the tuned scenario metrics.

The server and multistream metrics are *capacities*: the highest Poisson
rate (resp. stream count N) at which the run is still valid.  Real
submitters tune these by repeated runs; this module automates that:
each search here is a probe - one LoadGen run, or ``server_runs`` of
them - handed to :func:`repro.core.search.max_valid`.

``RunScale`` lets experiments trade statistical weight for wall time:
``full`` applies the paper's exact Table IV/V minimums (270,336 queries
for vision server runs); ``quick`` keeps every rule but scales the
minimum query counts and duration down - the default for the benchmark
sweeps, which probe dozens of (system, task, scenario) combos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.config import (
    SERVER_REQUIRED_RUNS,
    Scenario,
    Task,
    TestMode,
    TestSettings,
)
from ..core.loadgen import LoadGenResult, run_benchmark
from ..core.search import INTEGER, geometric, max_valid
from ..core.sut import QuerySampleLibrary, SystemUnderTest

#: Factory producing a fresh SUT for every probe run (state isolation).
SutFactory = Callable[[], SystemUnderTest]

#: The Server search's first rate (queries/s) and its probe budget.
START_QPS = 1.0
MAX_PROBES = 40
#: The burst search's relative resolution and probe budget.
BURST_TOLERANCE = 0.1
BURST_MAX_PROBES = 30
#: The lowest rate either search tries before it reports no capacity.
MIN_RATE = 1e-3


@dataclass(frozen=True)
class RunScale:
    """Scale factors applied to the rule minimums for probe runs."""

    query_count_factor: float = 1.0
    min_duration: Optional[float] = None
    server_runs: int = SERVER_REQUIRED_RUNS

    def apply(self, settings: TestSettings) -> TestSettings:
        overrides = {}
        if self.query_count_factor != 1.0:
            scaled = max(
                64, int(settings.resolved_min_query_count
                        * self.query_count_factor)
            )
            overrides["min_query_count"] = scaled
            if settings.scenario is Scenario.OFFLINE:
                # Keep offline batches large enough that any device's
                # max_batch is still saturated (the real run's single
                # 24,576-sample query always is).
                overrides["offline_sample_count"] = max(
                    1024, int(settings.resolved_offline_samples
                              * self.query_count_factor)
                )
        if self.min_duration is not None:
            overrides["min_duration"] = self.min_duration
        return settings.with_overrides(**overrides) if overrides else settings


FULL_SCALE = RunScale()
#: ~1/64th of the full query counts and a 2-second floor: seconds per
#: probe instead of minutes, same validity machinery.
QUICK_SCALE = RunScale(query_count_factor=1.0 / 64.0, min_duration=2.0,
                       server_runs=2)


@dataclass
class TunedResult:
    """Outcome of a capacity search."""

    value: float
    result: LoadGenResult
    probes: int


def _performance_settings(scenario: Scenario, task: Task, scale: RunScale,
                          seed: Optional[int]) -> TestSettings:
    """The scaled performance-mode settings every probe run starts from."""
    settings = TestSettings(scenario=scenario, task=task,
                            mode=TestMode.PERFORMANCE)
    if seed is not None:
        settings = settings.with_overrides(seed=seed)
    return scale.apply(settings)


def _is_stationary(result: LoadGenResult, bound: float) -> bool:
    """Reject runs whose latency is still ramping (overloaded queue).

    A short scaled-down run can stay under the latency bound while the
    queue grows without bound; the full 60-second run would catch this
    via the bound itself.  Compare the first and last latency deciles:
    in steady state they agree, under overload the last decile is far
    larger.
    """
    latencies = result.log.latencies()  # in issue order
    if len(latencies) < 100:
        return True
    decile = len(latencies) // 10
    first, last = (
        sum(part) / decile
        for part in (latencies[:decile], latencies[-decile:]))
    return last <= 2.0 * first + 0.05 * bound


def find_max_server_qps(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    relative_tolerance: float = 0.05,
    seed: int = None,
) -> Optional[TunedResult]:
    """Highest Poisson QPS at which the server scenario stays valid.

    The search starts at ``START_QPS`` and makes at most ``MAX_PROBES``
    probes.  Returns ``None`` when no rate down to ``MIN_RATE`` is
    valid - the system cannot meet the task's QoS bound at all and
    simply would not submit this scenario (cf. the sparse columns of
    Table VI).
    """
    settings = _performance_settings(Scenario.SERVER, task, scale, seed)
    bound = settings.resolved_server_latency_bound

    def run_at(qps: float) -> Optional[LoadGenResult]:
        # Section III-D: the reported server result is the minimum of
        # five runs, so a rate passes only if every run at it is valid.
        result = None
        for run_index in range(scale.server_runs):
            result = run_benchmark(sut_factory(), qsl, settings.with_overrides(
                server_target_qps=qps, seed=settings.seed + run_index))
            if not result.valid or not _is_stationary(result, bound):
                return None
        return result

    found = max_valid(run_at, START_QPS, geometric(4.0, relative_tolerance),
                      floor=MIN_RATE, max_probes=MAX_PROBES)
    if found.value is None:
        return None
    if found.open:
        raise RuntimeError("server rate search did not bracket a failure")
    return TunedResult(found.value, found.outcome, len(found.trail))


def find_max_burst_rate(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    settings: TestSettings,
) -> Optional[float]:
    """Highest average QPS at which a burst-mode Server run stays valid.

    ``settings`` is the Server run with its ``server_burst_size``; the
    search starts at its rate and steps in bursts per second (down to
    ``MIN_RATE``, to within ``BURST_TOLERANCE``), one run per probe.
    Returns ``None`` when no rate qualifies, and the last rate probed
    when none within ``BURST_MAX_PROBES`` fails.
    """
    size = settings.server_burst_size
    found = max_valid(
        lambda rate: run_benchmark(sut_factory(), qsl, settings.with_overrides(
            server_target_qps=size * rate)).valid,
        settings.server_target_qps / size, geometric(4.0, BURST_TOLERANCE),
        floor=MIN_RATE, max_probes=BURST_MAX_PROBES)
    return None if found.value is None else found.value * size


def find_max_multistream_n(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    max_n: int = 4096,
    seed: int = None,
) -> Optional[TunedResult]:
    """Largest integer streams-per-query N that stays valid.

    Returns ``None`` when even N=1 is invalid (the system cannot keep up
    with the arrival interval at all - such systems simply do not submit
    multistream results, cf. the sparse MS column of Table VI).
    """
    settings = _performance_settings(Scenario.MULTI_STREAM, task, scale, seed)

    def run_at(n: int) -> Optional[LoadGenResult]:
        result = run_benchmark(
            sut_factory(), qsl,
            settings.with_overrides(multistream_samples_per_query=n),
        )
        return result if result.valid else None

    found = max_valid(run_at, 1, INTEGER, ceiling=max_n)
    if found.value is None:
        return None
    return TunedResult(float(found.value), found.outcome, len(found.trail))


def measure_offline(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    seed: int = None,
) -> LoadGenResult:
    """One offline run; the metric is its measured throughput."""
    return run_benchmark(sut_factory(), qsl, _performance_settings(
        Scenario.OFFLINE, task, scale, seed))


def measure_single_stream(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    seed: int = None,
) -> LoadGenResult:
    """One single-stream run; the metric is its 90th-pct latency."""
    return run_benchmark(sut_factory(), qsl, _performance_settings(
        Scenario.SINGLE_STREAM, task, scale, seed))
