"""Fleet experiment harness: run every planned submission (Section VI).

``run_fleet`` drives each system in the simulated fleet through its
planned (task, scenario) combinations with the appropriate measurement:
one run for single-stream and offline, a capacity search for server and
multistream.  The output is a list of :class:`SubmissionRecord` - the
closed-division result corpus from which the Section VI figures and
tables are regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import Scenario, Task
from ..sut.device import ProcessorType
from ..sut.fleet import FleetSystem, build_fleet, task_workload
from ..sut.simulated import SimulatedSUT
from .netbench import SyntheticQSL
from .tuning import (
    RunScale,
    find_max_multistream_n,
    find_max_server_qps,
    measure_offline,
    measure_single_stream,
)

#: Even lighter probes for the 166-submission sweep.
FLEET_SCALE = RunScale(query_count_factor=1.0 / 256.0, min_duration=2.0,
                       server_runs=1)


@dataclass(frozen=True)
class SubmissionRecord:
    """One closed-division result."""

    system: str
    processor: ProcessorType
    framework: str
    category: str
    task: Task
    scenario: Scenario
    #: The scenario's Table II metric (latency s / streams / QPS / throughput).
    metric: float
    valid: bool

    @property
    def performance(self) -> float:
        """Higher-is-better figure used for Fig. 8 comparisons."""
        if self.scenario is Scenario.SINGLE_STREAM:
            return 1.0 / self.metric
        return self.metric


def run_submission(
    system: FleetSystem,
    task: Task,
    scenario: Scenario,
    seed: int = None,
) -> Optional[SubmissionRecord]:
    """Run one planned submission at ``FLEET_SCALE``; ``None`` if the
    system cannot qualify."""
    workload = task_workload(task)
    # Sample data is irrelevant to a simulated device's timing.
    qsl = SyntheticQSL()

    def make_sut() -> SimulatedSUT:
        return SimulatedSUT(
            system.device, workload, batch_window=system.batch_window
        )

    if scenario is Scenario.SINGLE_STREAM:
        result = measure_single_stream(make_sut, qsl, task, FLEET_SCALE,
                                       seed=seed)
        metric = result.primary_metric if result.valid else None
    elif scenario is Scenario.OFFLINE:
        result = measure_offline(make_sut, qsl, task, FLEET_SCALE, seed=seed)
        metric = result.primary_metric if result.valid else None
    elif scenario is Scenario.SERVER:
        tuned = find_max_server_qps(make_sut, qsl, task, FLEET_SCALE,
                                    relative_tolerance=0.1, seed=seed)
        metric = tuned.value if tuned is not None else None
    elif scenario is Scenario.MULTI_STREAM:
        tuned = find_max_multistream_n(make_sut, qsl, task, FLEET_SCALE,
                                       max_n=512, seed=seed)
        metric = tuned.value if tuned is not None else None
    else:  # pragma: no cover - exhaustive
        raise ValueError(f"unknown scenario {scenario}")

    if metric is None:
        return None
    return SubmissionRecord(
        system=system.name,
        processor=system.device.processor,
        framework=system.framework,
        category=system.category,
        task=task,
        scenario=scenario,
        metric=metric,
        valid=True,
    )


def run_fleet(
    systems: Optional[Sequence[FleetSystem]] = None,
    seed: int = None,
) -> List[SubmissionRecord]:
    """Run every planned submission across the fleet."""
    if systems is None:
        systems = build_fleet()
    records: List[SubmissionRecord] = []
    for system in systems:
        for task, scenario in system.submissions():
            record = run_submission(system, task, scenario, seed=seed)
            if record is not None:
                records.append(record)
    return records


# -- result-corpus views used by the Section VI figures -----------------------

def result_matrix(records: Sequence[SubmissionRecord]
                  ) -> Dict[Task, Dict[Scenario, int]]:
    """Counts per (task, scenario) - the Table VI view."""
    matrix: Dict[Task, Dict[Scenario, int]] = {
        task: {scenario: 0 for scenario in Scenario} for task in Task
    }
    for record in records:
        matrix[record.task][record.scenario] += 1
    return matrix


def results_per_task(records: Sequence[SubmissionRecord]) -> Dict[Task, int]:
    """Counts per model - the Fig. 5 view."""
    counts = {task: 0 for task in Task}
    for record in records:
        counts[record.task] += 1
    return counts


def results_per_processor(records: Sequence[SubmissionRecord]
                          ) -> Dict[ProcessorType, Dict[Task, int]]:
    """Counts per processor architecture - the Fig. 7 view."""
    out: Dict[ProcessorType, Dict[Task, int]] = {}
    for record in records:
        per_task = out.setdefault(record.processor, {t: 0 for t in Task})
        per_task[record.task] += 1
    return out


def server_offline_ratios(records: Sequence[SubmissionRecord]
                          ) -> Dict[str, Dict[Task, float]]:
    """Server/offline throughput ratio per system and task (Fig. 6).

    Only systems with both a server and an offline result for a task
    contribute, mirroring the paper's 11-system subset.
    """
    server: Dict[Tuple[str, Task], float] = {}
    offline: Dict[Tuple[str, Task], float] = {}
    for record in records:
        key = (record.system, record.task)
        if record.scenario is Scenario.SERVER:
            server[key] = record.metric
        elif record.scenario is Scenario.OFFLINE:
            offline[key] = record.metric
    ratios: Dict[str, Dict[Task, float]] = {}
    for key in server:
        if key in offline and offline[key] > 0:
            system, task = key
            ratios.setdefault(system, {})[task] = server[key] / offline[key]
    return ratios


def relative_performance(records: Sequence[SubmissionRecord]
                         ) -> Dict[Tuple[Task, Scenario], Dict[str, float]]:
    """Per (task, scenario): performance relative to the slowest (Fig. 8)."""
    groups: Dict[Tuple[Task, Scenario], Dict[str, float]] = {}
    for record in records:
        groups.setdefault((record.task, record.scenario), {})[
            record.system
        ] = record.performance
    out: Dict[Tuple[Task, Scenario], Dict[str, float]] = {}
    for key, values in groups.items():
        floor = min(values.values())
        out[key] = {system: value / floor for system, value in values.items()}
    return out
