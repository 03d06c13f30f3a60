"""Accuracy-verification audit (paper Section V-B, test 1).

In performance mode the LoadGen normally discards responses, so a
dishonest SUT could return garbage at full speed.  This test re-runs the
submission in performance mode with *random response logging* enabled
and cross-checks every logged response against the accuracy-mode log for
the same data set index.  Mismatches mean the performance run is not
computing real inferences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from ..accuracy.checker import responses_by_index
from ..core.config import TestMode, TestSettings
from ..core.loadgen import run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest

#: Fraction of performance-mode queries whose responses are logged.
LOG_PROBABILITY = 0.10


@dataclass
class AccuracyVerificationReport:
    """Outcome of the accuracy-verification audit."""

    passed: bool
    checked: int
    mismatches: int
    mismatch_indices: List[int] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        return (
            f"accuracy-verification: {verdict} "
            f"({self.mismatches}/{self.checked} logged responses mismatched)"
        )


def _payload_equal(a: object, b: object) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


def run_accuracy_verification(
    sut_factory: Callable[[], SystemUnderTest],
    qsl: QuerySampleLibrary,
    performance_settings: TestSettings,
) -> AccuracyVerificationReport:
    """Run the test: accuracy pass, then sampled performance pass."""
    accuracy_settings = performance_settings.with_overrides(
        mode=TestMode.ACCURACY
    )
    accuracy_result = run_benchmark(sut_factory(), qsl, accuracy_settings)
    reference = responses_by_index(accuracy_result)

    performance_result = run_benchmark(
        sut_factory(), qsl, performance_settings,
        log_sample_probability=LOG_PROBABILITY)
    sampled = responses_by_index(performance_result)
    if not sampled:
        raise RuntimeError(
            "performance run logged no responses; run more queries"
        )

    mismatches = [
        index for index, payload in sampled.items()
        if index not in reference
        or not _payload_equal(payload, reference[index])]
    return AccuracyVerificationReport(
        passed=not mismatches,
        checked=len(sampled),
        mismatches=len(mismatches),
        mismatch_indices=sorted(mismatches),
    )
