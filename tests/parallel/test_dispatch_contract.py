"""One query, one dispatch: the worker-pool SUT's traffic contract.

Only two kinds of traffic reach ``ParallelSUT``: the Offline and
SingleStream runs of ``repro run --sut parallel`` (one big query, or one
query in flight), and ``repro serve --backend parallel``, whose server
merges requests in its own queue before it hands the backend one query.
Every attempt the SUT is issued is therefore fanned out across the pool
on its own.  These cases pin that for each kind of traffic:

* a crash plan's kill lands on a worker holding a shard of the
  attempt, so every kill fails its attempt at any worker count;
* the pool runs one set of shards per issued attempt
  (``WorkerPool.run_shards`` calls), and ``parallel_dispatches_total``
  counts the same;
* each non-empty shard of an attempt that ships is one job in
  ``pool.stats`` (its shm and pickled dispatches);
* completions come back in issue order;
* accuracy outputs are identical at 1, 2 and 4 workers.
"""

import pytest

from repro.core.config import Scenario, TestMode, TestSettings
from repro.core.loadgen import run_benchmark
from repro.faults import FaultPlan, FaultType, ResilientSUT, RetryPolicy
from repro.harness.netbench import parallel_echo_backend
from repro.metrics import MetricsRegistry
from repro.network.protocol import FrameType
from repro.network.server import InferenceServer, ServerConfig
from repro.parallel import ParallelSUT

from tests.network.test_server import RawClient, issue
from tests.parallel.test_parallel_sut import ArrayQSL, affine_factory


class CountingSUT(ParallelSUT):
    """A ``ParallelSUT`` that notes what it is issued and what it
    resolves, and counts the pool's shard runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued = []
        self.resolved = []
        self.failures = 0
        self.shard_runs = count_shard_runs(self.pool)

    def issue_query(self, query):
        self.issued.append(query.id)
        super().issue_query(query)

    def complete(self, query, responses):
        self.resolved.append(query.id)
        super().complete(query, responses)

    def fail(self, query, reason):
        self.resolved.append(query.id)
        self.failures += 1
        super().fail(query, reason)


def count_shard_runs(pool):
    """Wrap ``pool.run_shards``; the returned list grows by the shard
    sizes of each call."""
    calls = []
    run_shards = pool.run_shards

    def counted(shards):
        calls.append([len(shard) for shard in shards])
        return run_shards(shards)

    pool.run_shards = counted
    return calls


def note_kills(pool):
    """Wrap ``pool.kill_worker``; the returned list grows by each
    victim's index."""
    victims = []
    kill_worker = pool.kill_worker

    def noted(index):
        victims.append(index)
        kill_worker(index)

    pool.kill_worker = noted
    return victims


def pool_jobs(pool):
    stats = pool.stats
    return stats.shm_dispatches + stats.pickle_dispatches


def outputs_of(result):
    return [
        (resp.sample_id, float(resp.data))
        for record in result.log.completed_records()
        for resp in record.responses
    ]


def run(sut, qsl, settings):
    try:
        return run_benchmark(sut, qsl, settings)
    finally:
        sut.close()


class TestOffline:
    def test_one_query_is_one_dispatch(self):
        registry = MetricsRegistry()
        qsl = ArrayQSL(48)
        sut = CountingSUT(affine_factory, qsl, workers=2, seed=9,
                          registry=registry)
        settings = TestSettings(
            scenario=Scenario.OFFLINE, mode=TestMode.ACCURACY,
            offline_sample_count=48, min_duration=0.0, min_query_count=1)
        result = run(sut, qsl, settings)
        assert result.valid, result.validity.reasons
        assert len(sut.issued) == 1
        assert sut.shard_runs == [[24, 24]]
        assert registry.get("parallel_dispatches_total").value == 1
        sizes = registry.get("parallel_batch_size_samples").labels()
        assert sizes.count == 1 and sizes.percentile(0.5) == 48
        assert pool_jobs(sut.pool) == 2
        assert sut.resolved == sut.issued

    def test_two_queries_at_t0_are_two_dispatches(self):
        """A ``min_duration`` keeps two Offline queries in flight: both
        go out at t=0, back to back, and neither waits for the other."""
        registry = MetricsRegistry()
        qsl = ArrayQSL(64)
        sut = CountingSUT(affine_factory, qsl, workers=2, seed=9,
                          service_time_fn=lambda n: 1e-3,
                          registry=registry)
        settings = TestSettings(
            scenario=Scenario.OFFLINE, offline_sample_count=24,
            min_duration=0.01, min_query_count=1)
        result = run(sut, qsl, settings)
        assert result.valid, result.validity.reasons
        issues = [record.issue_time for record in result.log.records()]
        assert issues[:3] == [0.0, 0.0, pytest.approx(1e-3)]
        attempts = len(sut.issued)
        assert attempts == len(issues) > 2
        assert sut.shard_runs == [[12, 12]] * attempts
        assert registry.get("parallel_dispatches_total").value == attempts
        assert pool_jobs(sut.pool) == 2 * attempts
        assert sut.resolved == sut.issued
        assert sut.failures == 0


class TestSingleStreamUnderRetries:
    def test_every_attempt_is_one_dispatch(self):
        """Attempts are the 32 queries plus their retries.  A STALL
        decision kills a worker before its attempt ships: when that
        worker holds the attempt's only sample, the attempt fails
        without a pool job, and a retry goes out as a fresh dispatch."""
        registry = MetricsRegistry()
        qsl = ArrayQSL(32)
        inner = CountingSUT(
            affine_factory, qsl, workers=2, seed=9, registry=registry,
            crash_plan=FaultPlan.single(FaultType.STALL, rate=0.5, seed=21))
        sut = ResilientSUT(
            inner, RetryPolicy(max_attempts=8, backoff_base=0.001))
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
            min_duration=0.0, min_query_count=1)
        try:
            result = run_benchmark(sut, qsl, settings)
        finally:
            inner.close()
        assert result.valid, result.validity.reasons
        attempts = len(inner.issued)
        assert attempts == 32 + sut.stats.retries
        assert inner.failures == sut.stats.retries > 0
        assert inner.shard_runs == [[1, 0]] * attempts
        assert registry.get("parallel_dispatches_total").value == attempts
        assert pool_jobs(inner.pool) == attempts - inner.failures
        assert inner.resolved == inner.issued
        completed = result.log.completed_records()
        assert len(completed) == 32
        assert all(
            float(record.responses[0].data)
            == 3.0 * record.query.samples[0].index + 1.0
            for record in completed)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_kill_fails_its_attempt(self, workers):
        """A STALL decision kills a worker holding a shard of the
        attempt, so the plan fails as many attempts at any worker count:
        a one-sample query's only shard, and victim, is worker 0."""
        qsl = ArrayQSL(32)
        inner = CountingSUT(
            affine_factory, qsl, workers=workers, seed=9,
            crash_plan=FaultPlan.single(FaultType.STALL, rate=0.5, seed=21))
        victims = note_kills(inner.pool)
        sut = ResilientSUT(
            inner, RetryPolicy(max_attempts=8, backoff_base=0.001))
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
            min_duration=0.0, min_query_count=1)
        try:
            result = run_benchmark(sut, qsl, settings)
        finally:
            inner.close()
        assert result.valid, result.validity.reasons
        assert len(result.log.completed_records()) == 32
        assert inner.failures == len(victims) > 0
        assert set(victims) == {0}


class TestDeterminism:
    @staticmethod
    def accuracy_outputs(workers):
        qsl = ArrayQSL(48)
        sut = CountingSUT(affine_factory, qsl, workers=workers, seed=9)
        settings = TestSettings(
            scenario=Scenario.OFFLINE, mode=TestMode.ACCURACY,
            offline_sample_count=48, min_duration=0.0, min_query_count=1)
        result = run(sut, qsl, settings)
        assert len(sut.shard_runs) == 1
        return outputs_of(result)

    def test_outputs_are_identical_at_1_2_4_workers(self):
        baseline = self.accuracy_outputs(1)
        assert [value for _, value in baseline] == [
            3.0 * index + 1.0 for index in range(48)]
        assert baseline == self.accuracy_outputs(2)
        assert baseline == self.accuracy_outputs(4)


@pytest.mark.socket
class TestServeBatch:
    def test_one_server_batch_is_one_dispatch(self):
        """``repro serve --backend parallel``: three one-sample requests
        merge into one server batch, which the backend is issued as one
        query and dispatches once."""
        backend = parallel_echo_backend(workers=2, seed=0)
        shard_runs = count_shard_runs(backend.pool)
        issued = []
        issue_query = backend.issue_query

        def counted(query):
            issued.append(query.sample_count)
            issue_query(query)

        backend.issue_query = counted
        config = ServerConfig(port=0, workers=1, max_queue=8, max_batch=3,
                              batch_window=5.0)
        with InferenceServer(backend, config) as srv:
            client = RawClient(srv.address)
            for qid in range(3):
                issue(client, query_id=qid, sample_ids=[qid])
            answered = sorted(
                client.recv()[0] is FrameType.COMPLETE for _ in range(3))
            client.close()
            batches = srv.stats.batches
        assert answered == [True] * 3
        assert batches == 1
        assert issued == [3]
        assert shard_runs == [[2, 1]]
        assert pool_jobs(backend.pool) == 2
