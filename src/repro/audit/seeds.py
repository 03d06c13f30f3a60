"""Alternate-random-seed test (paper Section V-B, test 3).

Optimizations keyed to the official LoadGen seed are prohibited: the
traffic pattern is pseudorandom but *predetermined*, so a submitter
could in principle precompute responses or schedules.  The test replays
the benchmark under several alternate seeds and checks that performance
does not collapse relative to the official-seed run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from ..core.config import TestSettings
from ..core.loadgen import run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest

#: Alternate-seed throughput may not fall below this fraction of the
#: official-seed throughput.
MIN_RELATIVE = 0.90

#: Seeds the audit replays the run at, beside the official one.
ALTERNATE_SEEDS = (0xA17E12, 0xA17E13, 0xA17E14)


@dataclass
class SeedTestReport:
    """Outcome of the alternate-seed audit."""

    passed: bool
    official_throughput: float
    alternate_throughputs: List[float] = field(default_factory=list)
    min_relative: float = MIN_RELATIVE

    @property
    def worst_relative(self) -> float:
        if not self.alternate_throughputs:
            return 1.0
        return min(self.alternate_throughputs) / self.official_throughput

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED (seed-tuned behaviour)"
        return (
            f"alternate-seed: {verdict} "
            f"(worst alternate/official throughput "
            f"{self.worst_relative:.3f}, floor {self.min_relative:.2f})"
        )


def run_seed_test(
    sut_factory: Callable[[], SystemUnderTest],
    qsl: QuerySampleLibrary,
    settings: TestSettings,
) -> SeedTestReport:
    """Measure throughput at the official seed, then at alternates."""
    official = run_benchmark(sut_factory(), qsl, settings)
    alternates = []
    for seed in ALTERNATE_SEEDS:
        result = run_benchmark(
            sut_factory(), qsl, settings.with_overrides(seed=seed))
        alternates.append(result.metrics.throughput)
    report = SeedTestReport(
        passed=True,
        official_throughput=official.metrics.throughput,
        alternate_throughputs=alternates,
    )
    report.passed = report.worst_relative >= MIN_RELATIVE
    return report
