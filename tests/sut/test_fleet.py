"""The simulated fleet: plans, coverage, and published distributions."""

from collections import Counter

import pytest

from repro.core import Scenario, Task, task_rules
from repro.sut.device import ComputeMotif, ProcessorType
from repro.sut.fleet import (
    FIGURE_5,
    TABLE_VI,
    TABLE_VII,
    build_fleet,
    framework_matrix,
    task_workload,
)


@pytest.fixture(scope="module")
def fleet():
    return build_fleet()


def planned(fleet):
    """Planned submissions per (task, scenario)."""
    return Counter(pair for system in fleet for pair in system.submissions())


class TestFleetComposition:
    def test_over_30_systems(self, fleet):
        assert len(fleet) > 30

    def test_unique_names(self, fleet):
        names = [s.name for s in fleet]
        assert len(set(names)) == len(names)

    def test_every_processor_type_present(self, fleet):
        procs = {s.device.processor for s in fleet}
        assert procs == set(ProcessorType)

    def test_categories_cover_all_three(self, fleet):
        assert {s.category for s in fleet} == {"available", "preview", "rdo"}

    def test_performance_spans_orders_of_magnitude(self, fleet):
        peaks = [s.device.peak_gops for s in fleet]
        assert max(peaks) / min(peaks) > 1e4


class TestPlannedDistributions:
    def test_planned_matrix_matches_table_vi_exactly(self, fleet):
        matrix = planned(fleet)
        for task in Task:
            for scenario in Scenario:
                # TABLE_VI is the paper's data: four scenario columns.
                # Post-paper scenarios (session) must plan zero runs.
                assert matrix[task, scenario] == \
                    TABLE_VI[task].get(scenario, 0), (task, scenario)

    def test_totals_match_figure_5(self, fleet):
        matrix = planned(fleet)
        for task in Task:
            assert sum(matrix[task, scenario] for scenario in Scenario) \
                == FIGURE_5[task]

    def test_166_total_results(self, fleet):
        assert sum(len(s.submissions()) for s in fleet) == 166

    def test_gnmt_multistream_is_empty(self, fleet):
        for system in fleet:
            for task, scenario in system.submissions():
                assert not (task is Task.MACHINE_TRANSLATION
                            and scenario is Scenario.MULTI_STREAM)

    def test_framework_matrix_matches_table_vii(self, fleet):
        assert framework_matrix(fleet) == TABLE_VII


class TestWorkloads:
    def test_vision_workloads_use_table_i_gops(self):
        wl = task_workload(Task.IMAGE_CLASSIFICATION_HEAVY)
        assert wl.gops_per_sample == pytest.approx(8.2)
        assert wl.motif is ComputeMotif.DENSE_CNN
        assert wl.variability == 0.0

    def test_light_models_are_depthwise(self):
        assert task_workload(Task.IMAGE_CLASSIFICATION_LIGHT).motif is \
            ComputeMotif.DEPTHWISE_CNN
        assert task_workload(Task.OBJECT_DETECTION_LIGHT).motif is \
            ComputeMotif.DEPTHWISE_CNN

    def test_gnmt_workload_is_variable_rnn(self):
        wl = task_workload(Task.MACHINE_TRANSLATION)
        assert wl.motif is ComputeMotif.RNN
        assert wl.variability > 0.0
        assert wl.gops_per_sample > 1.0


class TestPlanFeasibility:
    """Every planned server combo can meet its bound at batch 1 or at
    some batch the dispatcher can reach - a static sanity check that the
    tuning harness will find a nonzero capacity."""

    def test_server_plans_feasible(self, fleet):
        for system in fleet:
            for task, scenario in system.submissions():
                if scenario is not Scenario.SERVER:
                    continue
                workload = task_workload(task)
                bound = task_rules(task).server_latency_bound
                efficiency = system.device.motif_efficiency(workload.motif)
                best = min(
                    system.device.cost_at(
                        workload.gops_per_sample, batch, efficiency)[0]
                    for batch in (1, 2, 4, 8)
                )
                assert best < bound, (system.name, task)

    def test_multistream_plans_feasible(self, fleet):
        for system in fleet:
            for task, scenario in system.submissions():
                if scenario is not Scenario.MULTI_STREAM:
                    continue
                workload = task_workload(task)
                interval = task_rules(task).multistream_interval
                service = system.device.cost_at(
                    workload.gops_per_sample, 1,
                    system.device.motif_efficiency(workload.motif))[0]
                assert service < interval, (system.name, task)
