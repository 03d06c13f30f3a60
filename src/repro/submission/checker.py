"""The submission checker (paper Sections V-B and VII-E).

Validates a submission against the rules the paper enumerates: quality
targets (Table I), latency bounds (Table III), query requirements
(Table V), run-validity flags, numeric-format registration, and the
closed-division prohibitions (retraining, caching).  During the v0.5
review this class of automation surfaced ~40 issues across ~180 closed
results, so "only about three engineers had to comb through the
submissions".

The rules read only records - the payloads of ``system.json``,
``performance.json`` and ``accuracy.json`` that :func:`system_record`
and :func:`entry_record` build and ``write_submission`` writes - so
:func:`check_submission` and ``repro check`` judge one record form.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import Scenario, Task, TestMode
from ..submission.schema import (
    APPROVED_NUMERICS,
    BenchmarkResult,
    Division,
    Submission,
)

SYSTEM_FILE = "system.json"
PERFORMANCE_FILE = "performance.json"
ACCURACY_FILE = "accuracy.json"


class Severity(enum.Enum):
    ERROR = "error"      # submission (entry) is rejected
    WARNING = "warning"  # surfaced for human review


@dataclass(frozen=True)
class Issue:
    """One finding from the checker."""

    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.code}: {self.message}"


@dataclass
class CheckReport:
    """All findings for one submission."""

    issues: List[Issue] = field(default_factory=list)

    def add(self, severity: Severity, code: str, message: str) -> None:
        self.issues.append(Issue(severity, code, message))

    @property
    def errors(self) -> List[Issue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    @property
    def passed(self) -> bool:
        return not self.errors


@dataclass
class EntryRecord:
    """One entry as the rules see it: its declared task and scenario
    (its directory on disk) and its ``performance.json`` and
    ``accuracy.json`` payloads (``None`` for an absent file, the parse
    error for one that does not parse)."""

    task: Task
    scenario: Scenario
    performance: object
    accuracy: object

    @property
    def tag(self) -> str:
        """``task/scenario`` as findings name the entry."""
        return f"{self.task.value}/{self.scenario.short_name}"


def system_record(submission: Submission) -> Dict:
    """The ``system.json`` payload of ``submission``."""
    return {
        **asdict(submission.system),
        "numerics": [fmt.value for fmt in submission.system.numerics],
        "division": submission.division.value,
        "category": submission.category.value,
        "open_deviations": submission.open_deviations,
    }


def entry_record(entry: BenchmarkResult) -> EntryRecord:
    """The ``performance.json`` and ``accuracy.json`` payloads of one
    entry.  ``mode`` and ``run_scenario`` are the run's own; ``scenario``
    is the one the entry declares."""
    run = entry.performance
    metrics = run.metrics
    performance = {
        "scenario": entry.scenario.value,
        "task": entry.task.value,
        "mode": run.settings.mode.value,
        "run_scenario": run.settings.scenario.value,
        "valid": run.valid,
        "invalid_reasons": run.validity.reasons,
        "primary_metric": run.primary_metric,
        "primary_metric_name": metrics.primary_metric_name,
        "query_count": metrics.query_count,
        "sample_count": metrics.sample_count,
        "duration_seconds": metrics.duration,
        "latency_p90_ms": metrics.latency_p90 * 1e3,
        "latency_p99_ms": metrics.latency_p99 * 1e3,
        "seed": run.settings.seed,
        "retrained": entry.retrained,
        "caching_enabled": entry.caching_enabled,
    }
    if entry.scenario is Scenario.SERVER:
        # None: the run measured no tail (an accuracy-mode run).
        performance["violation_fraction"] = run.validity.details.get(
            "violation_fraction")
        performance["max_violation_fraction"] = (
            run.settings.resolved_max_violation_fraction)
    return EntryRecord(entry.task, entry.scenario, performance,
                       asdict(entry.accuracy))


#: The fields each record must carry for the rules to read: the JSON
#: type each holds, or the enum whose values it must be one of.
_SYSTEM_FIELDS = {"numerics": list, "division": Division,
                  "open_deviations": (str, type(None))}
_PERFORMANCE_FIELDS = {"mode": TestMode, "run_scenario": Scenario,
                       "valid": bool, "invalid_reasons": list,
                       "caching_enabled": bool, "retrained": bool}
_SERVER_FIELDS = {**_PERFORMANCE_FIELDS,
                  "violation_fraction": (int, float, type(None)),
                  "max_violation_fraction": (int, float)}
_ACCURACY_FIELDS = {"metric_name": str, "value": (int, float),
                    "target": (int, float), "passed": bool}


def _problem(record: object, fields: Dict) -> Optional[str]:
    """Why the rules cannot read ``record``, or ``None`` if they can."""
    if record is None:
        return "is missing"
    if isinstance(record, ValueError):
        return f"does not parse ({record})"
    if not isinstance(record, dict):
        return "is not a JSON object"
    for name, kind in fields.items():
        if name not in record:
            return f"lacks field {name!r}"
        value = record[name]
        if not (any(value == member.value for member in kind)
                if isinstance(kind, enum.EnumMeta)
                else isinstance(value, kind)):
            return f"field {name!r} holds {value!r}"
    return None


def _readable(report: CheckReport, where: str, record: object,
              fields: Dict) -> bool:
    """Whether the rules can read ``record``; reports why not."""
    problem = _problem(record, fields)
    if problem is not None:
        report.add(Severity.ERROR, "malformed-record", f"{where} {problem}")
    return problem is None


_APPROVED_VALUES = frozenset(fmt.value for fmt in APPROVED_NUMERICS)


def check_records(system: object,
                  entries: Sequence[EntryRecord]) -> CheckReport:
    """Run every rule against a system record and its entry records.

    A record the rules cannot read is a ``malformed-record`` error, and
    the rules that would read it are skipped.  So is an entry with no
    performance record: only a directory can lack one, and ``repro
    check`` reports it as ``missing-performance``.
    """
    report = CheckReport()

    if not entries:
        report.add(Severity.ERROR, "empty", "submission contains no results")

    division = None
    if _readable(report, SYSTEM_FILE, system, _SYSTEM_FIELDS):
        division = Division(system["division"])
        unapproved = [fmt for fmt in map(str, system["numerics"])
                      if fmt not in _APPROVED_VALUES]
        if unapproved:
            names = ", ".join(unapproved)
            report.add(Severity.ERROR, "numerics",
                       f"unregistered numeric formats: {names}")
        if division is Division.OPEN and not system["open_deviations"]:
            report.add(Severity.ERROR, "open-undocumented",
                       "open-division submissions must document their "
                       "deviations")

    seen = set()
    for entry in entries:
        key = (entry.task, entry.scenario)
        if key in seen:
            report.add(Severity.ERROR, "duplicate",
                       f"duplicate entry for {entry.tag}")
        seen.add(key)
        if entry.performance is not None:
            _check_entry(report, entry, division)
    return report


def _check_entry(report: CheckReport, entry: EntryRecord,
                 division: Optional[Division]) -> None:
    """Rule checks for one (task, scenario) entry."""
    tag = entry.tag
    server = entry.scenario is Scenario.SERVER
    perf, accuracy = entry.performance, entry.accuracy
    # Both records are checked (a list, not ``and``), so both are named.
    if not all([_readable(report, f"{tag}: {PERFORMANCE_FILE}", perf,
                          _SERVER_FIELDS if server else _PERFORMANCE_FIELDS),
                _readable(report, f"{tag}: {ACCURACY_FILE}", accuracy,
                          _ACCURACY_FIELDS)]):
        return

    if perf["mode"] != TestMode.PERFORMANCE.value:
        report.add(Severity.ERROR, "perf-mode",
                   f"{tag}: performance entry was not a performance-mode run")
    if not perf["valid"]:
        reasons = "; ".join(map(str, perf["invalid_reasons"]))
        report.add(Severity.ERROR, "invalid-run",
                   f"{tag}: performance run INVALID ({reasons})")
    if perf["run_scenario"] != entry.scenario.value:
        report.add(Severity.ERROR, "scenario-mismatch",
                   f"{tag}: run scenario {perf['run_scenario']} "
                   f"does not match declared scenario")

    if perf["caching_enabled"]:
        report.add(Severity.ERROR, "caching",
                   f"{tag}: query/result caching is prohibited")

    if division is Division.CLOSED:
        if perf["retrained"]:
            report.add(Severity.ERROR, "retraining",
                       f"{tag}: retraining is prohibited in the closed division")
        if not accuracy["passed"]:
            report.add(Severity.ERROR, "quality-target",
                       f"{tag}: {accuracy['metric_name']} "
                       f"{accuracy['value']:.4g} below target "
                       f"{accuracy['target']:.4g}")
    elif division is Division.OPEN and not accuracy["passed"]:
        report.add(Severity.WARNING, "quality-deviation",
                   f"{tag}: open-division quality below the closed target")

    if server:
        fraction = perf["violation_fraction"]
        if fraction is not None and fraction > perf["max_violation_fraction"]:
            report.add(Severity.ERROR, "latency-bound",
                       f"{tag}: tail-latency budget exceeded")


def check_submission(submission: Submission) -> CheckReport:
    """Run every rule against a submission."""
    return check_records(system_record(submission),
                         [entry_record(entry) for entry in submission.results])
