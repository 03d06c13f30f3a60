"""On-disk submission artifacts: write, read back, check."""

import json

import pytest

from repro.core import Scenario, Task
from repro.models.quantization import NumericFormat
from repro.submission.artifacts import (
    ACCURACY_FILE,
    DETAIL_FILE,
    PERFORMANCE_FILE,
    SUMMARY_FILE,
    SYSTEM_FILE,
    check_submission_dir,
    read_submission_dir,
    write_submission,
)
from repro.submission.schema import Division

from tests.submission.test_submission import (
    benchmark_result,
    submission,
    system_description,
)


@pytest.fixture
def written(tmp_path):
    sub = submission()
    root = write_submission(sub, tmp_path / "sub")
    return sub, root


class TestWrite:
    def test_layout(self, written):
        _sub, root = written
        assert (root / SYSTEM_FILE).exists()
        entry = root / "gnmt" / "server"
        for name in (SUMMARY_FILE, DETAIL_FILE, PERFORMANCE_FILE,
                     ACCURACY_FILE):
            assert (entry / name).exists(), name

    def test_system_payload(self, written):
        _sub, root = written
        payload = json.loads((root / SYSTEM_FILE).read_text())
        assert payload["name"] == "test-system"
        assert payload["division"] == "closed"
        assert payload["numerics"] == ["fp32"]

    def test_summary_is_the_loadgen_summary(self, written):
        sub, root = written
        text = (root / "gnmt" / "server" / SUMMARY_FILE).read_text()
        assert "Result is" in text
        assert "server" in text

    def test_detail_log_is_jsonl(self, written):
        sub, root = written
        lines = (root / "gnmt" / "server" / DETAIL_FILE).read_text()
        first = json.loads(lines.splitlines()[0])
        assert "query_id" in first
        assert "issue_time" in first

    def test_performance_payload(self, written):
        sub, root = written
        payload = json.loads(
            (root / "gnmt" / "server" / PERFORMANCE_FILE).read_text())
        assert payload["valid"] is True
        assert payload["query_count"] == 128


class TestReadBack:
    def test_roundtrip(self, written):
        _sub, root = written
        manifest = read_submission_dir(root)
        assert Division(manifest.system["division"]) is Division.CLOSED
        assert len(manifest.entries) == 1
        entry = manifest.entries[0]
        assert entry.task is Task.MACHINE_TRANSLATION
        assert entry.scenario is Scenario.SERVER
        assert entry.accuracy["passed"] is True

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_submission_dir(tmp_path / "nope")


class TestCheckDir:
    def test_clean_submission_cleared(self, written):
        _sub, root = written
        report = check_submission_dir(root)
        assert report.passed, [str(i) for i in report.issues]

    def test_missing_system_file(self, tmp_path):
        report = check_submission_dir(tmp_path)
        assert any(i.code == "missing-system" for i in report.errors)

    def test_empty_submission_flagged(self, tmp_path):
        root = write_submission(submission(results=[]), tmp_path / "s")
        report = check_submission_dir(root)
        assert any(i.code == "empty" for i in report.errors)

    def test_invalid_run_flagged_from_disk(self, tmp_path):
        root = write_submission(
            submission([benchmark_result(valid=False)]), tmp_path / "s")
        report = check_submission_dir(root)
        assert any(i.code == "invalid-run" for i in report.errors)

    def test_quality_miss_flagged_from_disk(self, tmp_path):
        root = write_submission(
            submission([benchmark_result(passed=False)]), tmp_path / "s")
        report = check_submission_dir(root)
        assert any(i.code == "quality-target" for i in report.errors)

    def test_retraining_flagged_from_disk(self, tmp_path):
        root = write_submission(
            submission([benchmark_result(retrained=True)]), tmp_path / "s")
        report = check_submission_dir(root)
        assert any(i.code == "retraining" for i in report.errors)

    def test_tampered_numerics_flagged(self, written):
        _sub, root = written
        payload = json.loads((root / SYSTEM_FILE).read_text())
        payload["numerics"] = ["fp32", "fp8-secret"]
        (root / SYSTEM_FILE).write_text(json.dumps(payload))
        report = check_submission_dir(root)
        assert any(i.code == "numerics" for i in report.errors)

    def test_deleted_log_file_flagged(self, written):
        _sub, root = written
        (root / "gnmt" / "server" / DETAIL_FILE).unlink()
        report = check_submission_dir(root)
        assert any(i.code == "missing-detail" for i in report.errors)

    def test_undocumented_open_division_flagged(self, tmp_path):
        sub = submission(division=Division.OPEN)
        root = write_submission(sub, tmp_path / "s")
        report = check_submission_dir(root)
        assert any(i.code == "open-undocumented" for i in report.errors)
