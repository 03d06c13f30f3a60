"""Table VI: coverage of models and scenarios (measured, not planned)."""

import pytest

from repro.core import PAPER_SCENARIOS, Scenario, Task
from repro.harness.experiments import result_matrix
from repro.harness.tables import format_coverage_matrix
from repro.sut.fleet import TABLE_VI


def test_table6_exact_reproduction(benchmark, fleet_records):
    matrix = benchmark(result_matrix, fleet_records)
    print("\n" + format_coverage_matrix(matrix))
    for task in Task:
        for scenario in PAPER_SCENARIOS:
            assert matrix[task][scenario] == TABLE_VI[task][scenario], \
                (task.value, scenario.short_name)


def test_table6_scenario_totals(benchmark, fleet_records):
    matrix = benchmark(result_matrix, fleet_records)
    totals = {
        scenario: sum(matrix[task][scenario] for task in Task)
        for scenario in PAPER_SCENARIOS
    }
    assert totals[Scenario.SINGLE_STREAM] == 51
    assert totals[Scenario.MULTI_STREAM] == 15
    assert totals[Scenario.SERVER] == 33
    assert totals[Scenario.OFFLINE] == 67


def test_table6_gnmt_multistream_empty(benchmark, fleet_records):
    """'GNMT garnered no multistream submissions ... the only model and
    scenario combination with no submissions.'"""
    matrix = benchmark(result_matrix, fleet_records)
    empty_cells = [
        (task, scenario)
        for task in Task for scenario in PAPER_SCENARIOS
        if matrix[task][scenario] == 0
    ]
    assert empty_cells == [(Task.MACHINE_TRANSLATION, Scenario.MULTI_STREAM)]


def test_table6_offline_and_single_stream_dominate(benchmark, fleet_records):
    """'the single-stream and offline scenarios are the most widely
    used'; server and multistream are harder and rarer."""
    matrix = benchmark(result_matrix, fleet_records)
    totals = {
        scenario: sum(matrix[task][scenario] for task in Task)
        for scenario in PAPER_SCENARIOS
    }
    assert totals[Scenario.OFFLINE] > totals[Scenario.SERVER]
    assert totals[Scenario.SINGLE_STREAM] > totals[Scenario.SERVER]
    assert totals[Scenario.MULTI_STREAM] == min(totals.values())
