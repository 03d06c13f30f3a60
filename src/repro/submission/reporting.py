"""Result reporting (paper Section V-C).

MLPerf Inference deliberately provides **no summary score**: weighting
tasks against each other is subjective, and specialized systems would be
misrepresented by any average.  The reporting functions therefore only
ever emit per-(task, scenario) rows, and say that no aggregate exists.
"""

from __future__ import annotations


from ..core.config import Scenario
from .schema import Submission


_METRIC_HEADINGS = {
    Scenario.SINGLE_STREAM: "90th-pct latency (ms)",
    Scenario.MULTI_STREAM: "streams",
    Scenario.SERVER: "queries/s",
    Scenario.OFFLINE: "samples/s",
}


def format_submission(submission: Submission) -> str:
    """Human-readable per-entry report for one submission."""
    lines = [
        f"System     : {submission.system.name} "
        f"({submission.system.processor}, {submission.system.software_stack})",
        f"Submitter  : {submission.system.submitter}",
        f"Division   : {submission.division.value}",
        f"Category   : {submission.category.value}",
        "-" * 72,
        f"{'Task':<26}{'Scenario':<14}{'Metric':<24}{'Quality':<10}",
        "-" * 72,
    ]
    for entry in submission.results:
        scenario = entry.scenario
        metric = entry.performance.primary_metric
        if scenario is Scenario.SINGLE_STREAM:
            metric_text = f"{metric * 1e3:.3f} ms (p90)"
        else:
            metric_text = f"{metric:.4g} {_METRIC_HEADINGS[scenario]}"
        quality = "PASS" if entry.accuracy.passed else "FAIL"
        lines.append(
            f"{entry.task.value:<26}{scenario.short_name:<14}"
            f"{metric_text:<24}{quality:<10}"
        )
    lines.append("-" * 72)
    lines.append("(no summary score - per Section V-C, none is defined)")
    return "\n".join(lines)
