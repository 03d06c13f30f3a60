"""On-disk submission artifacts (paper Section V-A).

"All this data is uploaded to a public GitHub repository for peer review
and validation before release."  This module writes a submission the way
the real flow lays it out - a system-description file plus, per (task,
scenario) entry, the LoadGen summary, the detailed query trace, and the
performance and accuracy records :mod:`.checker` builds - and re-reads
the directory so the checker can judge it without the live objects.

Layout::

    <root>/
      system.json
      <task>/<scenario>/
        mlperf_log_summary.txt
        mlperf_log_detail.jsonl
        performance.json
        accuracy.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from ..core.config import Scenario, Task
from .checker import (
    ACCURACY_FILE,
    PERFORMANCE_FILE,
    SYSTEM_FILE,
    CheckReport,
    EntryRecord,
    Issue,
    Severity,
    check_records,
    entry_record,
    system_record,
)
from .schema import Submission

SUMMARY_FILE = "mlperf_log_summary.txt"
DETAIL_FILE = "mlperf_log_detail.jsonl"


def _entry_dir(root: Path, task: Task, scenario: Scenario) -> Path:
    return root / task.value / scenario.value


def _dump(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_submission(submission: Submission, root: Path) -> Path:
    """Serialize ``submission`` under ``root``; returns the root path."""
    entries = submission.results
    if len({(e.task, e.scenario) for e in entries}) < len(entries):
        raise ValueError("two entries for one (task, scenario) "
                         "cannot share a directory")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    _dump(root / SYSTEM_FILE, system_record(submission))
    for entry in entries:
        record = entry_record(entry)
        directory = _entry_dir(root, entry.task, entry.scenario)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / SUMMARY_FILE).write_text(
            entry.performance.summary() + "\n")
        (directory / DETAIL_FILE).write_text(
            entry.performance.log.to_jsonl() + "\n")
        _dump(directory / PERFORMANCE_FILE, record.performance)
        _dump(directory / ACCURACY_FILE, record.accuracy)
    return root


def _load(path: Path) -> object:
    """A record file's payload: ``None`` when the file is absent, the
    parse error when it does not parse (the checker reports both)."""
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError as error:
        return error


@dataclass
class SubmissionManifest:
    """A submission directory, as read back for review."""

    root: Path
    system: object
    entries: List[EntryRecord] = field(default_factory=list)


def read_submission_dir(root: Path) -> SubmissionManifest:
    """Parse a submission directory written by :func:`write_submission`."""
    root = Path(root)
    system_path = root / SYSTEM_FILE
    if not system_path.exists():
        raise FileNotFoundError(f"no {SYSTEM_FILE} under {root}")
    manifest = SubmissionManifest(root=root, system=_load(system_path))
    for task in Task:
        for scenario in Scenario:
            directory = _entry_dir(root, task, scenario)
            if directory.exists():
                manifest.entries.append(EntryRecord(
                    task, scenario,
                    performance=_load(directory / PERFORMANCE_FILE),
                    accuracy=_load(directory / ACCURACY_FILE)))
    return manifest


def check_submission_dir(root: Path) -> CheckReport:
    """The checker's rules applied to the on-disk records, plus the
    findings only a directory can have: a file that is not there."""
    try:
        manifest = read_submission_dir(root)
    except FileNotFoundError as error:
        return CheckReport([Issue(Severity.ERROR, "missing-system",
                                  str(error))])

    report = check_records(manifest.system, manifest.entries)
    for entry in manifest.entries:
        directory = _entry_dir(manifest.root, entry.task, entry.scenario)
        for name, code in ((SUMMARY_FILE, "missing-summary"),
                           (DETAIL_FILE, "missing-detail"),
                           (PERFORMANCE_FILE, "missing-performance")):
            if not (directory / name).exists():
                report.add(Severity.ERROR, code,
                           f"{entry.tag}: {name} missing")
    return report
