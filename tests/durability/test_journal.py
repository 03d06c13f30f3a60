"""Journal format: CRC framing, torn tails, classified errors, fsync."""

import os
import pickle
import struct
import zlib

import pytest

from repro.core import Scenario, TestSettings
from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.durability import (
    JOURNAL_VERSION,
    MAGIC,
    FsyncPolicy,
    JournalError,
    JournalWriter,
    RunJournal,
    read_frames,
    read_run_journal,
)
from repro.metrics import MetricsRegistry


def query(qid, sample_ids=(1, 2)):
    samples = tuple(QuerySample(id=s, index=s + 100) for s in sample_ids)
    return Query(id=qid, samples=samples, issue_time=0.0)


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.rjnl"
        with JournalWriter(path) as w:
            w.append("header", {"version": 1})
            w.append("issued", {"q": 7, "t": 0.5})
            w.append("completed", {"q": 7, "t": 0.9, "r": [(1, None)]})
        records, truncated, intact = read_frames(path)
        assert records == [
            ("header", {"version": 1}),
            ("issued", {"q": 7, "t": 0.5}),
            ("completed", {"q": 7, "t": 0.9, "r": [(1, None)]}),
        ]
        assert not truncated
        assert intact == os.path.getsize(path)

    def test_empty_journal_is_magic_only(self, tmp_path):
        path = tmp_path / "empty.rjnl"
        JournalWriter(path).close()
        records, truncated, intact = read_frames(path)
        assert records == [] and not truncated
        assert intact == len(MAGIC)

    def test_torn_tail_is_tolerated_not_fatal(self, tmp_path):
        path = tmp_path / "torn.rjnl"
        with JournalWriter(path) as w:
            for i in range(10):
                w.append("issued", {"q": i})
        size = os.path.getsize(path)
        # Chop mid-way through the last frame: crash-mid-append.
        with open(path, "r+b") as f:
            f.truncate(size - 3)
        records, truncated, intact = read_frames(path)
        assert truncated
        assert [f_["q"] for _, f_ in records] == list(range(9))
        assert intact < size - 3

    def test_corrupt_crc_marks_the_tail_torn(self, tmp_path):
        path = tmp_path / "crc.rjnl"
        with JournalWriter(path) as w:
            w.append("issued", {"q": 1})
            w.append("issued", {"q": 2})
        with open(path, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            last = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last[0] ^ 0xFF]))
        records, truncated, _ = read_frames(path)
        assert truncated
        assert [f_["q"] for _, f_ in records] == [1]

    def test_append_after_tear_truncates_to_last_intact_frame(self, tmp_path):
        """The resume-append invariant: records appended after a torn
        frame would be unreachable (readers stop at the tear), so the
        writer must discard the tail first."""
        path = tmp_path / "resume.rjnl"
        with JournalWriter(path) as w:
            for i in range(5):
                w.append("issued", {"q": i})
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 2)
        _, truncated, intact = read_frames(path)
        assert truncated
        with JournalWriter(path, append=True, truncate_to=intact) as w:
            w.append("issued", {"q": 99})
        records, truncated, _ = read_frames(path)
        assert not truncated
        # The torn record (q=4) is gone; the append follows q=3 and every
        # record is reachable again.
        assert [f_["q"] for _, f_ in records] == [0, 1, 2, 3, 99]

    def test_plain_append_continues_an_intact_file(self, tmp_path):
        path = tmp_path / "grow.rjnl"
        with JournalWriter(path) as w:
            w.append("issued", {"q": 1})
        with JournalWriter(path, append=True) as w:
            w.append("issued", {"q": 2})
        records, truncated, _ = read_frames(path)
        assert not truncated
        assert [f_["q"] for _, f_ in records] == [1, 2]

    def test_append_to_closed_writer_is_classified(self, tmp_path):
        w = JournalWriter(tmp_path / "x.rjnl")
        w.close()
        with pytest.raises(JournalError) as info:
            w.append("issued", {})
        assert info.value.reason == "closed"

    def test_on_append_reports_running_record_count(self, tmp_path):
        counts = []
        with JournalWriter(tmp_path / "x.rjnl", on_append=counts.append) as w:
            for i in range(4):
                w.append("issued", {"q": i})
        assert counts == [1, 2, 3, 4]

    def test_undecodable_payload_is_treated_as_torn(self, tmp_path):
        path = tmp_path / "junk.rjnl"
        payload = b"\x80\x05junk-not-a-pickle"
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            f.write(payload)
        records, truncated, intact = read_frames(path)
        assert records == [] and truncated
        assert intact == len(MAGIC)


class TestClassifiedErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError) as info:
            read_frames(tmp_path / "nope.rjnl")
        assert info.value.reason == "no-journal"

    def test_foreign_magic(self, tmp_path):
        path = tmp_path / "alien.bin"
        path.write_bytes(b"ELF!....not a journal")
        with pytest.raises(JournalError) as info:
            read_frames(path)
        assert info.value.reason == "bad-magic"

    def test_headerless_journal_cannot_be_resumed(self, tmp_path):
        path = tmp_path / "nohdr.rjnl"
        with JournalWriter(path) as w:
            w.append("issued", {"q": 1})
        with pytest.raises(JournalError) as info:
            read_run_journal(path)
        assert info.value.reason == "no-header"

    def test_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "future.rjnl"
        with JournalWriter(path) as w:
            w.append("header", {"version": JOURNAL_VERSION + 1,
                                "settings": None, "keep_payloads": False,
                                "log_sample_probability": 0.0})
        with pytest.raises(JournalError) as info:
            read_run_journal(path)
        assert info.value.reason == "version-mismatch"


class TestFsyncPolicies:
    def test_always_fsyncs_every_record(self, tmp_path):
        with JournalWriter(tmp_path / "a.rjnl", fsync="always") as w:
            for i in range(5):
                w.append("issued", {"q": i})
            assert w.stats.fsyncs == 5

    def test_interval_batches_fsyncs(self, tmp_path):
        with JournalWriter(tmp_path / "i.rjnl", fsync="interval",
                           fsync_interval=4) as w:
            for i in range(9):
                w.append("issued", {"q": i})
            assert w.stats.fsyncs == 2  # at records 4 and 8
        # close() forces the final partial interval down.

    def test_never_fsyncs_but_still_flushes(self, tmp_path):
        path = tmp_path / "n.rjnl"
        with JournalWriter(path, fsync="never") as w:
            w.append("issued", {"q": 1})
            assert w.stats.fsyncs == 0
        assert read_frames(path)[0]

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JournalWriter(tmp_path / "x.rjnl", fsync_interval=0)


def settings():
    return TestSettings(scenario=Scenario.SINGLE_STREAM,
                        min_query_count=4, min_duration=0.0)


class TestRunJournal:
    def test_log_events_round_trip_through_state(self, tmp_path):
        path = tmp_path / "run.rjnl"
        j = RunJournal(path)
        j.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        q = query(11, sample_ids=(3, 4))
        j.on_log_event("issued", q, 0.25, None)
        j.on_log_event("completed", q, 0.50,
                       [QuerySampleResponse(3, "x"), QuerySampleResponse(4, "y")])
        j.on_log_event("failed", query(12), 0.75, "backend exploded")
        j.checkpoint(0.8, issued=2, outstanding=0)
        j.close()

        state = read_run_journal(path)
        assert state.settings.scenario is Scenario.SINGLE_STREAM
        assert not state.ended and not state.truncated
        assert state.issued[11].sample_count == 2
        # Performance mode drops payloads: timing is all resume needs.
        assert state.completions[11] == (0.50, None)
        assert state.failures[12] == (0.75, "backend exploded")
        assert state.checkpoints == [
            {"t": 0.8, "issued": 2, "outstanding": 0}]

    def test_accuracy_mode_keeps_response_payloads(self, tmp_path):
        path = tmp_path / "acc.rjnl"
        j = RunJournal(path)
        j.begin(settings(), keep_payloads=True, log_sample_probability=1.0)
        q = query(1, sample_ids=(5,))
        j.on_log_event("issued", q, 0.1, None)
        j.on_log_event("completed", q, 0.2, [QuerySampleResponse(5, [9, 9])])
        j.close()
        state = read_run_journal(path)
        assert state.keep_payloads
        assert state.completions[1] == (0.2, [(5, [9, 9])])

    def test_finish_seals_with_an_end_digest(self, tmp_path):
        path = tmp_path / "sealed.rjnl"

        class FakeMetrics:
            query_count = 4
            primary_metric = 123.0

        class FakeResult:
            metrics = FakeMetrics()
            valid = True

        j = RunJournal(path)
        j.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        j.finish(FakeResult())
        state = read_run_journal(path)
        assert state.ended
        # finish() closed the file; later events are silently dropped,
        # not errors (the run loop's finally may still fire).
        j.on_log_event("issued", query(1), 0.0, None)
        j.checkpoint(1.0)

    def test_resume_skips_events_already_on_disk(self, tmp_path):
        path = tmp_path / "dedup.rjnl"
        j = RunJournal(path)
        j.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        q = query(5)
        j.on_log_event("issued", q, 0.1, None)
        j.on_log_event("completed", q, 0.2, [])
        j.close()

        state = read_run_journal(path)
        j2 = RunJournal(path)
        j2.resume_from(state)
        j2.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        j2.on_log_event("issued", q, 0.1, None)       # already journaled
        j2.on_log_event("completed", q, 0.2, [])      # already journaled
        j2.on_log_event("issued", query(6), 0.3, None)  # new
        j2.close()
        assert j2.stats.skipped == 2

        reread = read_run_journal(path)
        assert reread.record_count == state.record_count + 1
        assert set(reread.issued) == {5, 6}

    def test_resume_from_after_begin_is_refused(self, tmp_path):
        j = RunJournal(tmp_path / "late.rjnl")
        j.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        with pytest.raises(JournalError) as info:
            j.resume_from(None)
        assert info.value.reason == "already-begun"

    def test_registry_counters_mirror_the_writer(self, tmp_path):
        registry = MetricsRegistry()
        j = RunJournal(tmp_path / "m.rjnl", fsync=FsyncPolicy.ALWAYS,
                       registry=registry)
        j.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        q = query(1)
        j.on_log_event("issued", q, 0.0, None)
        j.on_log_event("completed", q, 0.1, [])
        j.checkpoint(0.2)
        j.close()
        records = registry.get("durability_journal_records_total")
        kinds = {labels["kind"]: child.value
                 for labels, child in records.series()}
        assert kinds["header"] == 1
        assert kinds["issued"] == 1
        assert kinds["completed"] == 1
        assert kinds["checkpoint"] == 1
        assert registry.get("durability_journal_bytes_total").value > 0
        # fsync=always: one platter write per appended record.
        assert registry.get("durability_journal_fsyncs_total").value == 4
        assert registry.get("durability_checkpoints_total").value == 1

    def test_the_fsync_at_close_is_counted(self, tmp_path):
        """``interval`` leaves records pending; ``close`` forces them
        out, and the exported total is the writer's, close included."""
        registry = MetricsRegistry()
        j = RunJournal(tmp_path / "c.rjnl", fsync=FsyncPolicy.INTERVAL,
                       fsync_interval=64, registry=registry)
        j.begin(settings(), keep_payloads=False, log_sample_probability=0.0)
        j.on_log_event("issued", query(1), 0.0, None)
        assert registry.get("durability_journal_fsyncs_total").value == 0
        j.close()
        assert j.stats.fsyncs == 1
        assert registry.get("durability_journal_fsyncs_total").value == 1

    def test_checkpoint_period_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunJournal(tmp_path / "x.rjnl", checkpoint_period=0.0)

    def test_pickle_payloads_are_framed_not_raw(self, tmp_path):
        # The file must start with the magic and decode frame-by-frame;
        # a naive pickle.load of the whole file must NOT work.
        path = tmp_path / "framed.rjnl"
        with JournalWriter(path) as w:
            w.append("issued", {"q": 1})
        blob = path.read_bytes()
        assert blob.startswith(MAGIC)
        with pytest.raises(Exception):
            pickle.loads(blob)
