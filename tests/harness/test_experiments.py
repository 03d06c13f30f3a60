"""Fleet experiment harness and result views."""

import pytest

from repro.core import Scenario, Task
from repro.harness.experiments import (
    SubmissionRecord,
    relative_performance,
    result_matrix,
    results_per_processor,
    results_per_task,
    run_submission,
    server_offline_ratios,
)
from repro.sut.device import ProcessorType
from repro.sut.fleet import build_fleet


@pytest.fixture(scope="module")
def one_system():
    systems = {s.name: s for s in build_fleet()}
    return systems["dc-gpu-b"]


class TestRunSubmission:
    def test_offline_record(self, one_system):
        record = run_submission(one_system, Task.IMAGE_CLASSIFICATION_HEAVY,
                                Scenario.OFFLINE)
        assert record is not None
        assert record.valid
        assert record.metric > 100
        assert record.processor is ProcessorType.GPU
        assert record.framework == "TensorRT"

    def test_single_stream_performance_inverts_latency(self, one_system):
        record = run_submission(one_system, Task.IMAGE_CLASSIFICATION_HEAVY,
                                Scenario.SINGLE_STREAM)
        assert record.performance == pytest.approx(1.0 / record.metric)

    @pytest.mark.slow
    def test_server_record(self, one_system):
        record = run_submission(one_system, Task.IMAGE_CLASSIFICATION_HEAVY,
                                Scenario.SERVER)
        assert record is not None
        assert record.metric > 10


def _record(system, task, scenario, metric):
    return SubmissionRecord(
        system=system, processor=ProcessorType.CPU, framework="X",
        category="available", task=task, scenario=scenario,
        metric=metric, valid=True,
    )


class TestViews:
    def test_result_matrix_counts(self):
        records = [
            _record("a", Task.MACHINE_TRANSLATION, Scenario.SERVER, 10),
            _record("b", Task.MACHINE_TRANSLATION, Scenario.SERVER, 20),
            _record("a", Task.IMAGE_CLASSIFICATION_HEAVY, Scenario.OFFLINE, 5),
        ]
        matrix = result_matrix(records)
        assert matrix[Task.MACHINE_TRANSLATION][Scenario.SERVER] == 2
        assert matrix[Task.IMAGE_CLASSIFICATION_HEAVY][Scenario.OFFLINE] == 1
        assert matrix[Task.OBJECT_DETECTION_HEAVY][Scenario.SERVER] == 0

    def test_results_per_task_and_processor(self):
        records = [
            _record("a", Task.MACHINE_TRANSLATION, Scenario.SERVER, 10),
            _record("a", Task.MACHINE_TRANSLATION, Scenario.OFFLINE, 10),
        ]
        assert results_per_task(records)[Task.MACHINE_TRANSLATION] == 2
        per_proc = results_per_processor(records)
        assert per_proc[ProcessorType.CPU][Task.MACHINE_TRANSLATION] == 2

    def test_server_offline_ratio_pairs_only(self):
        records = [
            _record("a", Task.MACHINE_TRANSLATION, Scenario.SERVER, 40),
            _record("a", Task.MACHINE_TRANSLATION, Scenario.OFFLINE, 100),
            _record("b", Task.MACHINE_TRANSLATION, Scenario.SERVER, 50),
        ]
        ratios = server_offline_ratios(records)
        assert ratios == {"a": {Task.MACHINE_TRANSLATION: 0.4}}

    def test_relative_performance_normalizes_to_slowest(self):
        records = [
            _record("fast", Task.MACHINE_TRANSLATION, Scenario.OFFLINE, 100),
            _record("slow", Task.MACHINE_TRANSLATION, Scenario.OFFLINE, 10),
        ]
        rel = relative_performance(records)
        group = rel[(Task.MACHINE_TRANSLATION, Scenario.OFFLINE)]
        assert group["slow"] == pytest.approx(1.0)
        assert group["fast"] == pytest.approx(10.0)

    def test_relative_performance_single_stream_uses_inverse_latency(self):
        records = [
            _record("fast", Task.MACHINE_TRANSLATION,
                    Scenario.SINGLE_STREAM, 0.01),
            _record("slow", Task.MACHINE_TRANSLATION,
                    Scenario.SINGLE_STREAM, 0.1),
        ]
        rel = relative_performance(records)
        group = rel[(Task.MACHINE_TRANSLATION, Scenario.SINGLE_STREAM)]
        assert group["fast"] == pytest.approx(10.0)
        assert group["slow"] == pytest.approx(1.0)


class TestTables:
    def test_table_formatters_render(self):
        from repro.harness.tables import (
            format_coverage_matrix,
            format_framework_matrix,
            format_table_i,
            format_table_ii,
            format_table_iii,
            format_table_iv,
            format_table_v,
        )
        from repro.sut.fleet import TABLE_VI, TABLE_VII

        assert "ResNet-50 v1.5" in format_table_i()
        assert "Poisson" in format_table_ii()
        assert "250 ms" in format_table_iii()
        assert "270,336" in format_table_iv()
        assert "270K / N" in format_table_v()
        coverage = format_coverage_matrix(TABLE_VI)
        assert "TOTAL" in coverage
        assert "166" not in coverage.splitlines()[0]
        frameworks = format_framework_matrix(TABLE_VII)
        assert "TensorRT" in frameworks
        assert "X" in frameworks
