"""The submission checker's findings, pinned as literals.

``MEMORY`` holds, for one submission per rule, every
``(severity, code, message)`` that :func:`check_submission` reports, in
order.  ``ON_DISK`` holds the codes ``repro check`` reports on the
directory :func:`write_submission` makes of the same submission, for
the cases where the two already agreed.  ``FILE_PRESENCE`` holds the
codes for a directory with one file taken away.
"""

from pathlib import Path

import pytest

from repro.core import Scenario, Task, TestMode, TestSettings, run_benchmark
from repro.models.quantization import NumericFormat
from repro.submission import BenchmarkResult, Division, check_submission
from repro.submission.artifacts import (
    DETAIL_FILE,
    PERFORMANCE_FILE,
    SUMMARY_FILE,
    SYSTEM_FILE,
    check_submission_dir,
    write_submission,
)

from tests.conftest import EchoQSL, FixedLatencySUT
from tests.submission.test_submission import (
    accuracy_report,
    benchmark_result,
    performance_result,
    submission,
    system_description,
)


class UnregisteredFormat:
    value = "fp8"


def accuracy_mode_entry():
    settings = TestSettings(
        scenario=Scenario.SERVER, task=Task.MACHINE_TRANSLATION,
        mode=TestMode.ACCURACY, server_target_qps=100.0)
    run = run_benchmark(FixedLatencySUT(0.002), EchoQSL(total=64), settings)
    return BenchmarkResult(
        task=Task.MACHINE_TRANSLATION, scenario=Scenario.SERVER,
        performance=run, accuracy=accuracy_report())


def filed_as_offline():
    return BenchmarkResult(
        task=Task.MACHINE_TRANSLATION, scenario=Scenario.OFFLINE,
        performance=performance_result(), accuracy=accuracy_report())


#: name -> a function building the submission.
SUBMISSIONS = {
    "clean": lambda: submission(),
    "empty": lambda: submission(results=[]),
    "numerics": lambda: submission(system=system_description(
        numerics=(NumericFormat.FP32, UnregisteredFormat()))),
    "open-undocumented": lambda: submission(division=Division.OPEN),
    "duplicate": lambda: submission([benchmark_result(),
                                     benchmark_result()]),
    "perf-mode": lambda: submission([accuracy_mode_entry()]),
    "invalid-run": lambda: submission([benchmark_result(valid=False)]),
    "scenario-mismatch": lambda: submission([filed_as_offline()]),
    "caching": lambda: submission([benchmark_result(caching_enabled=True)]),
    "retraining": lambda: submission([benchmark_result(retrained=True)]),
    "quality-target": lambda: submission([benchmark_result(passed=False)]),
    "quality-deviation": lambda: submission(
        [benchmark_result(passed=False)], division=Division.OPEN,
        open_deviations="custom INT4 model"),
}

ERROR, WARNING = "error", "warning"

#: name -> check_submission's findings as (severity, code, message).
MEMORY = {
    "clean": [],
    "empty": [
        (ERROR, "empty", "submission contains no results")],
    "numerics": [
        (ERROR, "numerics", "unregistered numeric formats: fp8")],
    "open-undocumented": [
        (ERROR, "open-undocumented",
         "open-division submissions must document their deviations")],
    "duplicate": [
        (ERROR, "duplicate", "duplicate entry for gnmt/S")],
    "perf-mode": [
        (ERROR, "perf-mode",
         "gnmt/S: performance entry was not a performance-mode run")],
    "invalid-run": [
        (ERROR, "invalid-run",
         "gnmt/S: performance run INVALID (100.0000% of queries exceeded "
         "the 250 ms bound (budget 3%))"),
        (ERROR, "latency-bound", "gnmt/S: tail-latency budget exceeded")],
    "scenario-mismatch": [
        (ERROR, "scenario-mismatch",
         "gnmt/O: run scenario server does not match declared scenario")],
    "caching": [
        (ERROR, "caching", "gnmt/S: query/result caching is prohibited")],
    "retraining": [
        (ERROR, "retraining",
         "gnmt/S: retraining is prohibited in the closed division")],
    "quality-target": [
        (ERROR, "quality-target", "gnmt/S: SacreBLEU 10 below target 60")],
    "quality-deviation": [
        (WARNING, "quality-deviation",
         "gnmt/S: open-division quality below the closed target")],
}

#: name -> the codes ``repro check`` reports on the written directory.
ON_DISK = {
    "clean": [],
    "empty": ["empty"],
    "numerics": ["numerics"],
    "open-undocumented": ["open-undocumented"],
    "caching": ["caching"],
    "retraining": ["retraining"],
    "quality-target": ["quality-target"],
}

#: file taken away from a clean directory -> the codes reported.
FILE_PRESENCE = {
    SYSTEM_FILE: ["missing-system"],
    f"gnmt/server/{SUMMARY_FILE}": ["missing-summary"],
    f"gnmt/server/{DETAIL_FILE}": ["missing-detail"],
    f"gnmt/server/{PERFORMANCE_FILE}": ["missing-performance"],
}


def findings(report):
    return [(i.severity.value, i.code, i.message) for i in report.issues]


def test_every_case_is_pinned():
    assert sorted(MEMORY) == sorted(SUBMISSIONS)
    assert set(ON_DISK) <= set(SUBMISSIONS)


@pytest.mark.parametrize("case", sorted(MEMORY))
def test_check_submission_literal(case):
    assert findings(check_submission(SUBMISSIONS[case]())) == MEMORY[case]


@pytest.mark.parametrize("case", sorted(ON_DISK))
def test_check_submission_dir_codes(case, tmp_path):
    root = write_submission(SUBMISSIONS[case](), tmp_path / "sub")
    report = check_submission_dir(root)
    assert [i.code for i in report.issues] == ON_DISK[case]


@pytest.mark.parametrize("name", sorted(FILE_PRESENCE))
def test_file_presence_codes(name, tmp_path):
    root = write_submission(submission(), tmp_path / "sub")
    (Path(root) / name).unlink()
    report = check_submission_dir(root)
    assert [i.code for i in report.issues] == FILE_PRESENCE[name]
    assert not report.passed
