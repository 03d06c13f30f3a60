"""StreamReassembler: in-order release, duplicates, restarts, stranding."""

import pytest

from repro.core.query import StreamChunk
from repro.streaming import StreamReassembler

pytestmark = pytest.mark.streaming


def chunk(seq, last=False, qid=1):
    return StreamChunk(qid, seq, 1, last=last)


def seqs(released):
    return [c.seq for c in released]


def test_in_order_arrivals_release_immediately():
    r = StreamReassembler()
    for seq in range(3):
        assert seqs(r.push(1, chunk(seq))) == [seq]
    assert r.duplicates_dropped == 0
    assert r.finish(1) == 0


def test_early_arrivals_are_held_until_the_gap_fills():
    r = StreamReassembler()
    assert r.push(1, chunk(2)) == []
    assert r.push(1, chunk(1)) == []
    assert seqs(r.push(1, chunk(0))) == [0, 1, 2]
    assert r.held_peak == 3


def test_duplicates_are_dropped_whether_released_or_held():
    # Note seq 0 is exempt: a re-sent seq 0 is indistinguishable from a
    # stream restart and is treated as one.
    r = StreamReassembler()
    r.push(1, chunk(0))
    r.push(1, chunk(1))
    assert r.push(1, chunk(1)) == []      # already released
    r.push(1, chunk(3))
    assert r.push(1, chunk(3)) == []      # still held
    assert r.duplicates_dropped == 2
    assert seqs(r.push(1, chunk(2))) == [2, 3]


def test_restart_discards_the_old_attempts_buffer():
    r = StreamReassembler()
    r.push(1, chunk(0))
    r.push(1, chunk(2))                    # held behind the gap at 1
    assert seqs(r.push(1, chunk(0))) == [0]  # restart: fresh attempt
    # Seq 1 of the *new* attempt releases cleanly; the stale held seq-2
    # chunk did not leak into it.
    assert seqs(r.push(1, chunk(1))) == [1]
    assert seqs(r.push(1, chunk(2, last=True))) == [2]


def test_finish_reports_stranded_chunks():
    r = StreamReassembler()
    r.push(1, chunk(0))
    r.push(1, chunk(2))                    # chunk 1 was lost on the wire
    r.push(1, chunk(3, last=True))
    assert r.finish(1) == 2                # 2 and 3 never released
    assert r.finish(1) == 0                # the buffer went with it


def test_streams_are_independent_per_query():
    r = StreamReassembler()
    r.push(1, chunk(1, qid=1))             # held: gap at 0
    assert seqs(r.push(2, chunk(0, qid=2))) == [0]
    assert r.finish(1) == 1
    assert r.finish(2) == 0
