"""DynamicBatcher under the virtual clock: size/wait triggers, no splits."""

import pytest

from repro.core.events import EventLoop
from repro.core.query import Query, QuerySample
from repro.parallel.batching import BatchingPolicy, DynamicBatcher


def query(qid, samples=1):
    return Query(
        id=qid,
        samples=tuple(
            QuerySample(id=qid * 100 + i, index=i) for i in range(samples)
        ),
        issue_time=0.0,
    )


class Harness:
    def __init__(self, policy):
        self.loop = EventLoop()
        self.batches = []
        self.batcher = DynamicBatcher(self.loop, policy, self.batches.append)


class TestPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait=-1.0)


class TestTriggers:
    def test_fires_immediately_at_max_batch_size(self):
        h = Harness(BatchingPolicy(max_batch_size=3, max_wait=10.0))
        for qid in (1, 2, 3):
            h.batcher.add(query(qid))
        assert len(h.batches) == 1
        assert [q.id for q, _ in h.batches[0]] == [1, 2, 3]
        assert h.batcher._pending_samples == 0

    def test_fires_at_max_wait_with_partial_batch(self):
        h = Harness(BatchingPolicy(max_batch_size=100, max_wait=0.005))
        h.batcher.add(query(1))
        h.batcher.add(query(2))
        h.loop.run()
        assert len(h.batches) == 1
        assert [q.id for q, _ in h.batches[0]] == [1, 2]
        # The batch fired exactly at the wait bound, virtual time.
        assert h.loop.now == pytest.approx(0.005)

    def test_zero_wait_dispatches_each_query_alone(self):
        h = Harness(BatchingPolicy(max_batch_size=100, max_wait=0.0))
        h.batcher.add(query(1))
        h.batcher.add(query(2))
        assert [len(b) for b in h.batches] == [1, 1]

    def test_waits_are_exact_under_virtual_clock(self):
        h = Harness(BatchingPolicy(max_batch_size=2, max_wait=1.0))
        h.batcher.add(query(1))
        h.loop.schedule_after(0.25, lambda: h.batcher.add(query(2)))
        h.loop.run()
        waits = {q.id: w for q, w in h.batches[0]}
        assert waits[1] == pytest.approx(0.25)
        assert waits[2] == pytest.approx(0.0)


class TestWholeQueries:
    def test_queries_are_never_split(self):
        h = Harness(BatchingPolicy(max_batch_size=4, max_wait=10.0))
        h.batcher.add(query(1, samples=3))
        h.batcher.add(query(2, samples=3))  # 6 samples >= 4: fires
        assert len(h.batches) == 1
        batch = h.batches[0]
        assert [q.sample_count for q, _ in batch] == [3, 3]

    def test_oversized_query_ships_alone(self):
        h = Harness(BatchingPolicy(max_batch_size=4, max_wait=10.0))
        h.batcher.add(query(1, samples=9))
        assert len(h.batches) == 1
        assert h.batches[0][0][0].sample_count == 9


class TestFlush:
    def test_flush_dispatches_leftovers_and_cancels_timer(self):
        h = Harness(BatchingPolicy(max_batch_size=100, max_wait=5.0))
        h.batcher.add(query(1))
        h.batcher.flush()
        assert len(h.batches) == 1
        h.loop.run()  # the cancelled timer must not re-fire
        assert len(h.batches) == 1

    def test_flush_with_nothing_pending_is_a_noop(self):
        h = Harness(BatchingPolicy())
        h.batcher.flush()
        assert h.batches == []
