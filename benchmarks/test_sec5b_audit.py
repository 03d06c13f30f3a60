"""Section V-B / VII-E: the validation suite during result review.

"We found about 40 issues in the approximately 180 results from the
closed division ... Thanks to the LoadGen's accuracy checkers and
submission-checker scripts, we identified many issues automatically."
This bench runs a small review round with injected rule violations and
verifies the tooling catches every one while clearing the honest
majority.
"""

import pytest

from repro.accuracy.checker import AccuracyReport
from repro.audit import (
    run_accuracy_verification,
    run_caching_detection,
    run_custom_dataset_test,
)
from repro.core import Scenario, Task, TestSettings, run_benchmark
from repro.datasets import DatasetQSL, SyntheticImageNet
from repro.models.quantization import NumericFormat
from repro.models.runtime import build_glyph_classifier
from repro.submission import (
    BenchmarkResult,
    Category,
    Division,
    Submission,
    SystemDescription,
    review_round,
)
from repro.sut.backend import ClassifierSUT

from tests.conftest import EchoQSL, FixedLatencySUT


def make_entry(latency, accuracy_value, target=70.0, retrained=False):
    settings = TestSettings(
        scenario=Scenario.SERVER, task=Task.MACHINE_TRANSLATION,
        server_target_qps=100.0, min_query_count=128, min_duration=0.5,
    )
    performance = run_benchmark(FixedLatencySUT(latency), EchoQSL(), settings)
    accuracy = AccuracyReport(
        metric_name="SacreBLEU", value=accuracy_value, target=target,
        passed=accuracy_value >= target, sample_count=128,
    )
    return BenchmarkResult(
        task=Task.MACHINE_TRANSLATION, scenario=Scenario.SERVER,
        performance=performance, accuracy=accuracy, retrained=retrained,
    )


def make_submission(entry, name):
    return Submission(
        system=SystemDescription(
            name=name, submitter="bench", processor="CPU",
            accelerator_count=0, host_cpu_count=2, software_stack="numpy",
            memory_gb=8.0, numerics=(NumericFormat.FP32,),
        ),
        division=Division.CLOSED, category=Category.AVAILABLE,
        results=[entry],
    )


def test_sec5b_review_round_catches_injected_issues(benchmark):
    """9 honest + 3 rule-breaking submissions: all three violation
    classes surface, nothing honest is rejected."""
    def build_round():
        submissions = [
            make_submission(make_entry(0.002, 75.0), f"honest-{i}")
            for i in range(9)
        ]
        submissions.append(make_submission(
            make_entry(0.3, 75.0), "latency-violator"))
        submissions.append(make_submission(
            make_entry(0.002, 50.0), "quality-misser"))
        submissions.append(make_submission(
            make_entry(0.002, 75.0, retrained=True), "retrainer"))
        return review_round(submissions)

    summary = benchmark.pedantic(build_round, rounds=1, iterations=1)
    print("\n  " + summary.summary())
    print(f"  issue codes: {summary.issue_codes()}")
    assert summary.total_results == 12
    assert summary.cleared_results == 9
    codes = summary.issue_codes()
    assert codes.get("invalid-run", 0) >= 1
    assert codes.get("quality-target") == 1
    assert codes.get("retraining") == 1


@pytest.fixture(scope="module")
def audit_setup():
    dataset = SyntheticImageNet(size=200)
    qsl = DatasetQSL(dataset)
    model = build_glyph_classifier(dataset, "heavy")

    def factory():
        return ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.002 * n)

    settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                            min_query_count=128, min_duration=0.3)
    return factory, qsl, settings


def test_sec5b_accuracy_verification_cost(benchmark, audit_setup):
    factory, qsl, settings = audit_setup
    report = benchmark.pedantic(
        lambda: run_accuracy_verification(factory, qsl, settings),
        rounds=1, iterations=1)
    assert report.passed


def test_sec5b_caching_detection_cost(benchmark, audit_setup):
    factory, qsl, settings = audit_setup
    report = benchmark.pedantic(
        lambda: run_caching_detection(factory, qsl, settings),
        rounds=1, iterations=1)
    assert report.passed


def test_sec5b_custom_dataset_cost(benchmark, audit_setup):
    """The submitter's recipe on a data set it has never seen: the glyph
    model built for the new set keeps its quality (a system replaying
    results memorized from the reference set would not)."""
    _factory, qsl, settings = audit_setup
    custom = SyntheticImageNet(size=200, seed=777)

    def sut_for(audit_qsl):
        model = build_glyph_classifier(audit_qsl.dataset, "heavy")
        return ClassifierSUT(model, audit_qsl,
                             service_time_fn=lambda n: 0.002 * n)

    report = benchmark.pedantic(
        lambda: run_custom_dataset_test(
            sut_for, qsl.dataset, custom, settings,
            task_type="classification", max_relative_drop=0.10),
        rounds=1, iterations=1)
    print("\n  " + report.summary())
    assert report.passed
