"""Lint: the submission checker emits each issue code from one place.

An ``ast`` walk over ``src/repro/submission`` finds every finding the
package raises - a call whose first argument is ``Severity.<level>`` -
and the issue code it carries.  A code given as a literal is one site;
a code bound by a ``for`` over a literal table of rows (the file
presence checks) is one site per row.  A code that is neither fails the
lint, so nothing can hide a second rule body from it.

It also holds the record the rules read to a round trip: what
:func:`read_submission_dir` reads back from :func:`write_submission` is
exactly :func:`system_record` and each :func:`entry_record`.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

from repro.core import Scenario, Task
from repro.submission import BenchmarkResult, Division
from repro.submission.artifacts import read_submission_dir, write_submission
from repro.submission.checker import entry_record, system_record

from tests.submission.test_checker_contract import (
    accuracy_mode_entry,
    filed_as_offline,
)
from tests.submission.test_submission import (
    accuracy_report,
    benchmark_result,
    performance_result,
    submission,
)

PACKAGE = (Path(__file__).resolve().parents[2]
           / "src" / "repro" / "submission")

#: Every code the package reports.
CODES = {
    "caching", "duplicate", "empty", "invalid-run", "latency-bound",
    "malformed-record", "missing-detail", "missing-performance",
    "missing-summary", "missing-system", "numerics", "open-undocumented",
    "perf-mode", "quality-deviation", "quality-target", "retraining",
    "scenario-mismatch",
}


def _is_finding(node):
    return (isinstance(node, ast.Call) and len(node.args) >= 2
            and isinstance(node.args[0], ast.Attribute)
            and isinstance(node.args[0].value, ast.Name)
            and node.args[0].value.id == "Severity")


def _table_codes(tree):
    """id(finding call) -> [(code, line)] for calls inside a ``for``
    whose target binds the call's code from a literal table."""
    codes = {}
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For)
                and isinstance(loop.target, ast.Tuple)
                and isinstance(loop.iter, (ast.Tuple, ast.List))):
            continue
        names = [getattr(target, "id", None) for target in loop.target.elts]
        for node in ast.walk(loop):
            if (_is_finding(node) and isinstance(node.args[1], ast.Name)
                    and node.args[1].id in names):
                column = names.index(node.args[1].id)
                codes[id(node)] = [(row.elts[column].value, row.lineno)
                                   for row in loop.iter.elts]
    return codes


def emission_sites():
    """code -> ["file:line", ...] for every place a code is emitted."""
    sites = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        tables = _table_codes(tree)
        for node in ast.walk(tree):
            if not _is_finding(node):
                continue
            code = node.args[1]
            if isinstance(code, ast.Constant):
                rows = [(code.value, code.lineno)]
            else:
                assert id(node) in tables, (
                    f"{path.name}:{node.lineno}: issue code is neither a "
                    f"literal nor a row of a literal table")
                rows = tables[id(node)]
            for value, line in rows:
                sites[value].append(f"{path.name}:{line}")
    return dict(sites)


def test_each_code_is_emitted_at_one_site():
    repeated = {code: where for code, where in emission_sites().items()
                if len(where) > 1}
    assert repeated == {}


def test_the_walk_finds_every_code():
    assert set(emission_sites()) == CODES


ROUND_TRIPS = {
    "clean": lambda: submission(),
    "open": lambda: submission([benchmark_result(passed=False)],
                               division=Division.OPEN,
                               open_deviations="custom INT4 model"),
    "invalid": lambda: submission([benchmark_result(valid=False)]),
    "accuracy-mode": lambda: submission([accuracy_mode_entry()]),
    "offline": lambda: submission([filed_as_offline()]),
    "two entries": lambda: submission([
        BenchmarkResult(task=Task.MACHINE_TRANSLATION,
                        scenario=Scenario.OFFLINE,
                        performance=performance_result(),
                        accuracy=accuracy_report()),
        benchmark_result(retrained=True, caching_enabled=True)]),
}


def by_tag(record):
    return record.tag


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
def test_read_back_is_the_built_record(case, tmp_path):
    sub = ROUND_TRIPS[case]()
    manifest = read_submission_dir(write_submission(sub, tmp_path / "s"))
    assert manifest.system == system_record(sub)
    # The directory is read back in enum order, not written order.
    assert (sorted(manifest.entries, key=by_tag)
            == sorted(map(entry_record, sub.results), key=by_tag))
