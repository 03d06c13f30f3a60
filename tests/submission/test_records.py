"""One verdict: ``repro check`` on a written submission reports what
:func:`check_submission` reports, and a record the rules cannot read is
a ``malformed-record`` finding, never a default and never a crash."""

import json

import pytest

from repro.cli import main
from repro.core import Scenario
from repro.submission import check_submission
from repro.submission.artifacts import (
    ACCURACY_FILE,
    PERFORMANCE_FILE,
    SYSTEM_FILE,
    check_submission_dir,
    write_submission,
)
from repro.submission.checker import entry_record

from tests.submission.test_checker_contract import (
    SUBMISSIONS,
    accuracy_mode_entry,
    filed_as_offline,
    findings,
)
from tests.submission.test_submission import (
    benchmark_result,
    submission,
)

#: Every pinned case but ``duplicate``, which cannot be written.
WRITABLE = sorted(set(SUBMISSIONS) - {"duplicate"})


@pytest.mark.parametrize("case", WRITABLE)
def test_check_submission_dir_reports_what_check_submission_reports(
        case, tmp_path):
    sub = SUBMISSIONS[case]()
    root = write_submission(sub, tmp_path / "s")
    assert (findings(check_submission_dir(root))
            == findings(check_submission(sub)))


def test_two_entries_for_one_directory_are_not_written(tmp_path):
    with pytest.raises(ValueError, match="cannot share a directory"):
        write_submission(SUBMISSIONS["duplicate"](), tmp_path / "s")
    assert not (tmp_path / "s").exists()


class TestRecordFields:
    def test_server_record_carries_the_run_and_its_tail(self):
        record = entry_record(benchmark_result(valid=False)).performance
        assert record["mode"] == "performance"
        assert record["run_scenario"] == "server"
        assert record["violation_fraction"] == 1.0
        assert record["max_violation_fraction"] == 0.03

    def test_other_scenarios_carry_no_tail(self):
        record = entry_record(filed_as_offline()).performance
        assert record["scenario"] == "offline"
        assert record["run_scenario"] == "server"
        assert "violation_fraction" not in record


@pytest.fixture
def entry_dir(tmp_path):
    root = write_submission(submission(), tmp_path / "s")
    return root, root / "gnmt" / "server"


def check(root, capsys):
    code = main(["check", str(root)])
    return code, capsys.readouterr().out


class TestMalformedRecords:
    def test_truncated_performance_record(self, entry_dir, capsys):
        root, directory = entry_dir
        text = (directory / PERFORMANCE_FILE).read_text()
        (directory / PERFORMANCE_FILE).write_text(text[:len(text) // 2])
        code, out = check(root, capsys)
        assert code == 1
        assert "[error] malformed-record: gnmt/S: performance.json " \
               "does not parse" in out
        assert "REJECTED" in out

    def test_a_list_is_not_a_record(self, entry_dir, capsys):
        root, directory = entry_dir
        (directory / PERFORMANCE_FILE).write_text("[]\n")
        code, out = check(root, capsys)
        assert code == 1
        assert ("[error] malformed-record: gnmt/S: performance.json is not "
                "a JSON object") in out
        assert "missing-performance" not in out

    def test_skeletal_directory_is_rejected(self, tmp_path, capsys):
        root = tmp_path / "s"
        (root / "gnmt" / "server").mkdir(parents=True)
        (root / SYSTEM_FILE).write_text(json.dumps({"division": "closed"}))
        (root / "gnmt" / "server" / PERFORMANCE_FILE).write_text(
            json.dumps({"valid": True}))
        code, out = check(root, capsys)
        assert code == 1
        assert out.splitlines() == [
            "[error] malformed-record: system.json lacks field 'numerics'",
            "[error] malformed-record: gnmt/S: performance.json lacks "
            "field 'mode'",
            "[error] malformed-record: gnmt/S: accuracy.json is missing",
            "[error] missing-summary: gnmt/S: mlperf_log_summary.txt "
            "missing",
            "[error] missing-detail: gnmt/S: mlperf_log_detail.jsonl "
            "missing",
            "submission REJECTED (5 errors)",
        ]

    @pytest.mark.parametrize("field", ["retrained", "caching_enabled"])
    def test_a_missing_flag_is_not_read_as_false(self, entry_dir, field):
        root, directory = entry_dir
        payload = json.loads((directory / PERFORMANCE_FILE).read_text())
        del payload[field]
        (directory / PERFORMANCE_FILE).write_text(json.dumps(payload))
        assert findings(check_submission_dir(root)) == [
            ("error", "malformed-record",
             f"gnmt/S: performance.json lacks field {field!r}")]

    def test_a_wrongly_typed_field_is_malformed(self, entry_dir):
        root, directory = entry_dir
        payload = json.loads((directory / ACCURACY_FILE).read_text())
        payload["passed"] = "yes"
        (directory / ACCURACY_FILE).write_text(json.dumps(payload))
        assert findings(check_submission_dir(root)) == [
            ("error", "malformed-record",
             "gnmt/S: accuracy.json field 'passed' holds 'yes'")]

    def test_an_unknown_division_is_malformed(self, entry_dir):
        root, _ = entry_dir
        payload = json.loads((root / SYSTEM_FILE).read_text())
        payload["division"] = "closed-ish"
        (root / SYSTEM_FILE).write_text(json.dumps(payload))
        assert findings(check_submission_dir(root)) == [
            ("error", "malformed-record",
             "system.json field 'division' holds 'closed-ish'")]

    def test_a_server_record_needs_its_tail(self, entry_dir):
        root, directory = entry_dir
        payload = json.loads((directory / PERFORMANCE_FILE).read_text())
        del payload["violation_fraction"]
        (directory / PERFORMANCE_FILE).write_text(json.dumps(payload))
        assert [i.code for i in check_submission_dir(root).issues] == [
            "malformed-record"]


def test_an_accuracy_run_filed_as_server_measures_no_tail(tmp_path):
    entry = accuracy_mode_entry()
    assert entry.scenario is Scenario.SERVER
    assert entry_record(entry).performance["violation_fraction"] is None
    root = write_submission(submission([entry]), tmp_path / "s")
    assert [i.code for i in check_submission_dir(root).issues] == [
        "perf-mode"]
