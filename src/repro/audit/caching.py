"""On-the-fly caching detection (paper Section V-B, test 2).

The rules prohibit caching of queries and intermediate data.  Because
the LoadGen draws samples *with replacement*, high-performance systems
see many duplicate indices; a caching SUT runs the duplicate-heavy
traffic suspiciously faster.  The test runs two performance passes - one
whose loaded set makes duplicates rare (large unique pool) and one where
they are guaranteed (a tiny pool drawn repeatedly) - and flags the
submission if the duplicate-heavy pass is significantly faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.config import TestSettings
from ..core.loadgen import run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest

#: Speedup on duplicate-heavy traffic above which caching is reported.
SPEEDUP_THRESHOLD = 1.25

#: Size of the tiny pool used to force duplicate samples.
DUPLICATE_POOL_SIZE = 4


@dataclass
class CachingDetectionReport:
    """Outcome of the caching-detection audit."""

    passed: bool
    unique_throughput: float
    duplicate_throughput: float
    speedup: float
    threshold: float

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED (caching suspected)"
        return (
            f"caching-detection: {verdict} "
            f"(duplicate/unique speedup {self.speedup:.2f}x, "
            f"threshold {self.threshold:.2f}x)"
        )


def run_caching_detection(
    sut_factory: Callable[[], SystemUnderTest],
    qsl: QuerySampleLibrary,
    settings: TestSettings,
) -> CachingDetectionReport:
    """Compare throughput on unique-heavy vs duplicate-heavy traffic."""
    unique_settings = settings.with_overrides(
        performance_sample_count=qsl.performance_sample_count,
    )
    unique_result = run_benchmark(sut_factory(), qsl, unique_settings)

    duplicate_settings = settings.with_overrides(
        performance_sample_count=DUPLICATE_POOL_SIZE,
        seed=settings.seed + 1,
    )
    duplicate_result = run_benchmark(sut_factory(), qsl, duplicate_settings)

    unique_throughput = unique_result.metrics.throughput
    duplicate_throughput = duplicate_result.metrics.throughput
    speedup = duplicate_throughput / unique_throughput
    return CachingDetectionReport(
        passed=speedup <= SPEEDUP_THRESHOLD,
        unique_throughput=unique_throughput,
        duplicate_throughput=duplicate_throughput,
        speedup=speedup,
        threshold=SPEEDUP_THRESHOLD,
    )
