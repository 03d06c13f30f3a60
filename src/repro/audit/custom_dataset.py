"""Custom-data-set result-caching check (paper Section V-B, test 4).

Beyond LoadGen-level tests, MLPerf validates behaviour by swapping the
reference data set for a custom one and comparing quality and
performance.  A system that memorized the reference data keeps its
reference accuracy on the swap only by luck; a system that caches whole
results keeps its *speed* but loses its *accuracy*.  The test runs
accuracy mode on both data sets and requires the quality on the custom
set to track the reference quality within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..accuracy.checker import check_accuracy
from ..core.config import TestMode, TestSettings
from ..core.loadgen import run_benchmark
from ..core.sut import SystemUnderTest
from ..datasets.base import Dataset
from ..datasets.qsl import DatasetQSL


@dataclass
class CustomDatasetReport:
    """Outcome of the custom-data-set audit."""

    passed: bool
    reference_quality: float
    custom_quality: float
    max_relative_drop: float

    @property
    def relative_drop(self) -> float:
        if self.reference_quality == 0:
            return 0.0
        return 1.0 - self.custom_quality / self.reference_quality

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED (data-set-specific behaviour)"
        return (
            f"custom-dataset: {verdict} "
            f"(reference {self.reference_quality:.4g}, "
            f"custom {self.custom_quality:.4g}, "
            f"drop {self.relative_drop:.2%})"
        )


def run_custom_dataset_test(
    sut_for_qsl: Callable[[DatasetQSL], SystemUnderTest],
    reference_dataset: Dataset,
    custom_dataset: Dataset,
    settings: TestSettings,
    task_type: str,
    max_relative_drop: float = 0.05,
) -> CustomDatasetReport:
    """Accuracy-mode both data sets; quality must carry over.

    ``sut_for_qsl`` builds the submitter's SUT around a given QSL - the
    auditor substitutes the data set underneath the same system.
    """
    accuracy_settings = settings.with_overrides(mode=TestMode.ACCURACY)

    reference_qsl = DatasetQSL(reference_dataset)
    reference_result = run_benchmark(
        sut_for_qsl(reference_qsl), reference_qsl, accuracy_settings)
    reference_report = check_accuracy(
        reference_result, reference_dataset, task_type, quality_target=0.0
    )

    custom_qsl = DatasetQSL(custom_dataset)
    custom_result = run_benchmark(
        sut_for_qsl(custom_qsl), custom_qsl, accuracy_settings)
    custom_report = check_accuracy(
        custom_result, custom_dataset, task_type, quality_target=0.0
    )

    drop = 1.0 - (
        custom_report.value / reference_report.value
        if reference_report.value else 0.0
    )
    return CustomDatasetReport(
        passed=drop <= max_relative_drop,
        reference_quality=reference_report.value,
        custom_quality=custom_report.value,
        max_relative_drop=max_relative_drop,
    )
