"""Submission schema, checker rules, review pipeline, reporting."""

import pytest

from repro.accuracy.checker import AccuracyReport
from repro.core import Scenario, Task, TestMode, TestSettings, run_benchmark
from repro.models.quantization import NumericFormat
from repro.submission import (
    APPROVED_NUMERICS,
    BenchmarkResult,
    Category,
    CheckReport,
    Division,
    Severity,
    Submission,
    SystemDescription,
    check_submission,
    format_submission,
    review_round,
)

from tests.conftest import EchoQSL, FixedLatencySUT


def system_description(**kwargs):
    defaults = dict(
        name="test-system", submitter="repro", processor="CPU",
        accelerator_count=0, host_cpu_count=2, software_stack="numpy",
        memory_gb=16.0, numerics=(NumericFormat.FP32,),
    )
    defaults.update(kwargs)
    return SystemDescription(**defaults)


def performance_result(valid=True):
    qsl = EchoQSL()
    latency = 0.002 if valid else 0.3   # GNMT server bound is 250 ms
    settings = TestSettings(
        scenario=Scenario.SERVER, task=Task.MACHINE_TRANSLATION,
        server_target_qps=100.0, min_query_count=128, min_duration=0.5,
    )
    return run_benchmark(FixedLatencySUT(latency), qsl, settings)


def accuracy_report(passed=True):
    return AccuracyReport(metric_name="SacreBLEU", value=70.0 if passed else 10.0,
                          target=60.0, passed=passed, sample_count=100)


def benchmark_result(valid=True, passed=True, **kwargs):
    return BenchmarkResult(
        task=Task.MACHINE_TRANSLATION, scenario=Scenario.SERVER,
        performance=performance_result(valid), accuracy=accuracy_report(passed),
        **kwargs,
    )


def submission(results=None, division=Division.CLOSED, **kwargs):
    if results is None:
        results = [benchmark_result()]
    return Submission(
        system=kwargs.pop("system", system_description()),
        division=division,
        category=Category.AVAILABLE,
        results=results,
        **kwargs,
    )


class TestSchema:
    def test_valid_system_description(self):
        desc = system_description()
        assert desc.numerics == (NumericFormat.FP32,)

    def test_invalid_descriptions_rejected(self):
        with pytest.raises(ValueError):
            system_description(accelerator_count=-1)
        with pytest.raises(ValueError):
            system_description(host_cpu_count=0)
        with pytest.raises(ValueError):
            system_description(numerics=())

    def test_approved_numerics_match_section_iv(self):
        assert NumericFormat.INT4 in APPROVED_NUMERICS
        assert NumericFormat.FP11 in APPROVED_NUMERICS
        assert len(APPROVED_NUMERICS) == 9


class TestChecker:
    def test_clean_submission_passes(self):
        report = check_submission(submission())
        assert report.passed, [str(i) for i in report.issues]

    def test_empty_submission_fails(self):
        report = check_submission(submission(results=[]))
        assert not report.passed
        assert any(i.code == "empty" for i in report.issues)

    def test_invalid_performance_run_flagged(self):
        report = check_submission(submission([benchmark_result(valid=False)]))
        assert not report.passed
        assert any(i.code == "invalid-run" for i in report.errors)

    def test_quality_miss_fails_closed_division(self):
        report = check_submission(submission([benchmark_result(passed=False)]))
        assert any(i.code == "quality-target" for i in report.errors)

    def test_quality_miss_is_warning_in_open_division(self):
        sub = submission([benchmark_result(passed=False)],
                         division=Division.OPEN,
                         open_deviations="custom INT4 model")
        report = check_submission(sub)
        assert report.passed
        assert any(i.code == "quality-deviation" for i in report.issues)

    def test_retraining_prohibited_in_closed(self):
        result = benchmark_result(retrained=True)
        report = check_submission(submission([result]))
        assert any(i.code == "retraining" for i in report.errors)

    def test_retraining_allowed_in_open(self):
        result = benchmark_result(retrained=True)
        sub = submission([result], division=Division.OPEN,
                         open_deviations="retrained with distillation")
        assert check_submission(sub).passed

    def test_caching_always_prohibited(self):
        result = benchmark_result(caching_enabled=True)
        sub = submission([result], division=Division.OPEN,
                         open_deviations="doc")
        report = check_submission(sub)
        assert any(i.code == "caching" for i in report.errors)

    def test_open_division_requires_documentation(self):
        sub = submission(division=Division.OPEN)
        report = check_submission(sub)
        assert any(i.code == "open-undocumented" for i in report.errors)

    def test_unregistered_numerics_flagged(self):
        class FakeFormat:
            value = "fp8"
        desc = system_description(
            numerics=(NumericFormat.FP32, FakeFormat()))
        report = check_submission(submission(system=desc))
        assert any(i.code == "numerics" for i in report.errors)

    def test_duplicate_entries_flagged(self):
        result = benchmark_result()
        report = check_submission(submission([result, result]))
        assert any(i.code == "duplicate" for i in report.errors)

    def test_issue_string_format(self):
        report = check_submission(submission(results=[]))
        assert "[error] empty" in str(report.errors[0])

    def test_accuracy_mode_run_is_not_a_performance_entry(self):
        settings = TestSettings(
            scenario=Scenario.SERVER, task=Task.MACHINE_TRANSLATION,
            mode=TestMode.ACCURACY, server_target_qps=100.0)
        run = run_benchmark(FixedLatencySUT(0.002), EchoQSL(total=64),
                            settings)
        result = BenchmarkResult(
            task=Task.MACHINE_TRANSLATION, scenario=Scenario.SERVER,
            performance=run, accuracy=accuracy_report())
        report = check_submission(submission([result]))
        assert any(i.code == "perf-mode" for i in report.errors)

    def test_declared_scenario_must_match_the_run(self):
        result = BenchmarkResult(
            task=Task.MACHINE_TRANSLATION, scenario=Scenario.OFFLINE,
            performance=performance_result(), accuracy=accuracy_report())
        report = check_submission(submission([result]))
        assert [i.code for i in report.errors] == ["scenario-mismatch"]

    def test_result_issues_name_their_entry(self):
        report = check_submission(
            submission([benchmark_result(caching_enabled=True)]))
        (issue,) = report.errors
        tag = (f"{Task.MACHINE_TRANSLATION.value}/"
               f"{Scenario.SERVER.short_name}")
        assert issue.message.startswith(f"{tag}: ")

    def test_only_errors_fail_a_submission(self):
        report = CheckReport()
        report.add(Severity.WARNING, "quality-deviation", "below target")
        assert report.passed and report.errors == []
        report.add(Severity.ERROR, "caching", "prohibited")
        assert not report.passed
        assert [i.code for i in report.errors] == ["caching"]


class TestReview:
    def test_round_counts(self):
        subs = [
            submission(),
            submission([benchmark_result(valid=False)]),
            submission([benchmark_result(passed=False)]),
        ]
        summary = review_round(subs)
        assert summary.total_submissions == 3
        assert summary.total_results == 3
        assert summary.cleared_results == 1
        # The invalid run trips both invalid-run and latency-bound.
        assert summary.issues_found == 3
        assert "3 submissions" in summary.summary()

    def test_issue_code_histogram(self):
        subs = [submission([benchmark_result(passed=False)]) for _ in range(2)]
        summary = review_round(subs)
        assert summary.issue_codes() == {"quality-target": 2}


class TestReporting:
    def test_format_lists_results_without_aggregate(self):
        text = format_submission(submission())
        assert "gnmt" in text
        assert "no summary score" in text
        assert "closed" in text
