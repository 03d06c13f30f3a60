"""Markdown report generation for a fleet sweep.

Renders a complete Section VI-style results report from a list of
:class:`~repro.harness.experiments.SubmissionRecord`: the coverage
matrix (Table VI), the per-model distribution (Fig. 5), the
per-processor histogram (Fig. 7), the framework matrix (Table VII), the
server/offline degradation summary (Fig. 6), the relative-performance
spreads (Fig. 8), and the raw per-result listing.  ``EXPERIMENTS.md``'s
measured sections are produced with this module.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from ..core.config import Scenario, Task
from ..sut.device import ProcessorType
from ..sut.fleet import FleetSystem, framework_matrix
from .experiments import (
    SubmissionRecord,
    relative_performance,
    result_matrix,
    results_per_processor,
    results_per_task,
    server_offline_ratios,
)

_METRIC_UNITS = {
    Scenario.SINGLE_STREAM: "ms (p90)",
    Scenario.MULTI_STREAM: "streams",
    Scenario.SERVER: "qps",
    Scenario.OFFLINE: "samples/s",
}

#: Rows of the per-result listing; the rest are counted, not shown.
LISTING_LIMIT = 40


def _metric_text(record: SubmissionRecord) -> str:
    if record.scenario is Scenario.SINGLE_STREAM:
        return f"{record.metric * 1e3:.3g} {_METRIC_UNITS[record.scenario]}"
    return f"{record.metric:.4g} {_METRIC_UNITS[record.scenario]}"


def coverage_section(records: Sequence[SubmissionRecord]) -> str:
    matrix = result_matrix(records)
    lines = [
        "| model | SS | MS | S | O | total |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    totals = {scenario: 0 for scenario in Scenario}
    for task in Task:
        row = matrix[task]
        for scenario in Scenario:
            totals[scenario] += row[scenario]
        lines.append(
            f"| {task.value} "
            f"| {row[Scenario.SINGLE_STREAM]} "
            f"| {row[Scenario.MULTI_STREAM]} "
            f"| {row[Scenario.SERVER]} "
            f"| {row[Scenario.OFFLINE]} "
            f"| {sum(row.values())} |"
        )
    lines.append(
        f"| **total** | {totals[Scenario.SINGLE_STREAM]} "
        f"| {totals[Scenario.MULTI_STREAM]} | {totals[Scenario.SERVER]} "
        f"| {totals[Scenario.OFFLINE]} | {len(records)} |"
    )
    return "\n".join(lines)


def per_task_section(records: Sequence[SubmissionRecord]) -> str:
    counts = results_per_task(records)
    lines = ["| model | results |", "|---|---:|"]
    for task in Task:
        lines.append(f"| {task.value} | {counts[task]} |")
    return "\n".join(lines)


def per_processor_section(records: Sequence[SubmissionRecord]) -> str:
    per_proc = results_per_processor(records)
    lines = ["| processor | results |", "|---|---:|"]
    ordered = sorted(per_proc.items(),
                     key=lambda kv: -sum(kv[1].values()))
    for proc, tasks in ordered:
        lines.append(f"| {proc.value} | {sum(tasks.values())} |")
    return "\n".join(lines)


def degradation_section(records: Sequence[SubmissionRecord]) -> str:
    ratios = server_offline_ratios(records)
    per_task: Dict[Task, List[float]] = {}
    for by_task in ratios.values():
        for task, ratio in by_task.items():
            per_task.setdefault(task, []).append(ratio)
    lines = [
        "| model | systems | min | mean | max |",
        "|---|---:|---:|---:|---:|",
    ]
    for task in Task:
        values = per_task.get(task)
        if not values:
            continue
        lines.append(
            f"| {task.value} | {len(values)} | {min(values):.2f} "
            f"| {statistics.mean(values):.2f} | {max(values):.2f} |"
        )
    return "\n".join(lines)


def spread_section(records: Sequence[SubmissionRecord]) -> str:
    rel = relative_performance(records)
    lines = [
        "| model | scenario | systems | spread (fastest/slowest) |",
        "|---|---|---:|---:|",
    ]
    for task in Task:
        for scenario in Scenario:
            group = rel.get((task, scenario))
            if not group:
                continue
            lines.append(
                f"| {task.value} | {scenario.short_name} | {len(group)} "
                f"| {max(group.values()):.1f}x |"
            )
    return "\n".join(lines)


def framework_section(systems: Sequence[FleetSystem]) -> str:
    matrix = framework_matrix(systems)
    columns = [ProcessorType.ASIC, ProcessorType.CPU, ProcessorType.DSP,
               ProcessorType.FPGA, ProcessorType.GPU]
    header = "| framework | " + " | ".join(c.value for c in columns) + " |"
    lines = [header, "|---|" + "---|" * len(columns)]
    for framework in sorted(matrix):
        marks = " | ".join(
            "X" if column in matrix[framework] else ""
            for column in columns
        )
        lines.append(f"| {framework} | {marks} |")
    return "\n".join(lines)


def results_listing(records: Sequence[SubmissionRecord]) -> str:
    """The first ``LISTING_LIMIT`` results, one row each."""
    lines = [
        "| system | processor | framework | model | scenario | metric |",
        "|---|---|---|---|---|---|",
    ]
    for record in records[:LISTING_LIMIT]:
        lines.append(
            f"| {record.system} | {record.processor.value} "
            f"| {record.framework} | {record.task.value} "
            f"| {record.scenario.short_name} | {_metric_text(record)} |"
        )
    if len(records) > LISTING_LIMIT:
        lines.append(
            f"| ... | | | | | ({len(records) - LISTING_LIMIT} more) |")
    return "\n".join(lines)


def generate_report(
    records: Sequence[SubmissionRecord],
    systems: Optional[Sequence[FleetSystem]] = None,
    title: str = "Fleet sweep report",
) -> str:
    """Render the full markdown report."""
    sections = [
        f"# {title}",
        f"\n{len(records)} closed-division results"
        + (f" from {len(systems)} systems" if systems else "") + ".",
        "\n## Coverage of models and scenarios (Table VI)\n",
        coverage_section(records),
        "\n## Results per model (Figure 5)\n",
        per_task_section(records),
        "\n## Results per processor architecture (Figure 7)\n",
        per_processor_section(records),
        "\n## Server-to-offline throughput ratios (Figure 6)\n",
        degradation_section(records),
        "\n## Relative performance spreads (Figure 8)\n",
        spread_section(records),
    ]
    if systems:
        sections += [
            "\n## Framework x architecture (Table VII)\n",
            framework_section(systems),
        ]
    sections += [
        "\n## Individual results\n",
        results_listing(records),
        "",
    ]
    return "\n".join(sections)
