"""ParallelSUT end to end: determinism at any worker count, modelled
scaling, crash-to-QueryFailure, and composition with ResilientSUT."""

import numpy as np
import pytest

from repro.core.events import EventLoop, WallClock
from repro.core.config import Scenario, TestMode, TestSettings
from repro.core.loadgen import run_benchmark
from repro.core.query import Query, QueryFailure, QuerySample
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultType,
    ResilientSUT,
    RetryPolicy,
)
from repro.metrics import MetricsRegistry
from repro.parallel import ParallelSUT


class ArrayQSL:
    """Samples are small arrays whose contents encode their index."""

    name = "arrays"

    def __init__(self, size=64):
        self._size = size

    @property
    def total_sample_count(self):
        return self._size

    @property
    def performance_sample_count(self):
        return self._size

    def load_samples(self, indices):
        pass

    def unload_samples(self, indices):
        pass

    def get_sample(self, index):
        return np.full((4,), float(index), dtype=np.float32)


def affine_factory():
    def predict(samples):
        return np.stack([3.0 * s[0] + 1.0 for s in samples])
    return predict


def accuracy_settings(samples=48):
    return TestSettings(
        scenario=Scenario.OFFLINE, mode=TestMode.ACCURACY,
        offline_sample_count=samples, min_duration=0.0, min_query_count=1)


def run_accuracy(workers, *, qsl=None, samples=48, **sut_kwargs):
    qsl = qsl or ArrayQSL(samples)
    sut = ParallelSUT(
        affine_factory, qsl, workers=workers, seed=9, **sut_kwargs)
    try:
        result = run_benchmark(sut, qsl, accuracy_settings(samples))
    finally:
        sut.close()
    return result


def outputs_of(result):
    return [
        (resp.sample_id, float(resp.data))
        for record in result.log.completed_records()
        for resp in record.responses
    ]


class TestDeterminism:
    def test_identical_accuracy_outputs_for_1_2_4_workers(self):
        """The ISSUE 4 acceptance bar: same seed, same outputs, no
        matter how many processes did the arithmetic."""
        baseline = outputs_of(run_accuracy(workers=1))
        assert len(baseline) == 48
        assert baseline == outputs_of(run_accuracy(workers=2))
        assert baseline == outputs_of(run_accuracy(workers=4))
        # And the arithmetic is right, not merely consistent.
        assert baseline[0][1] == 1.0  # 3 * 0 + 1
        assert baseline[-1][1] == 3.0 * 47 + 1.0

    def test_repeat_runs_are_bit_identical(self):
        assert outputs_of(run_accuracy(2)) == outputs_of(run_accuracy(2))


class TestModelledScaling:
    def test_service_time_model_scales_with_workers(self):
        """Per-shard service model: the batch finishes at the slowest
        shard, so N workers cut the virtual duration ~N-fold."""
        durations = {}
        for workers in (1, 2, 4):
            result = run_accuracy(
                workers, service_time_fn=lambda n: 1e-4 * n)
            durations[workers] = result.metrics.duration
        assert durations[1] == pytest.approx(2 * durations[2], rel=0.2)
        assert durations[1] == pytest.approx(4 * durations[4], rel=0.3)


class TestRealtimeLoop:
    def test_serves_under_wall_clock(self):
        """The realtime path (CLI serve / netbench backends) completes
        at zero extra delay: the wall time already elapsed in-dispatch."""
        qsl = ArrayQSL(8)
        sut = ParallelSUT(
            affine_factory, qsl, workers=2, seed=9)
        try:
            result = run_benchmark(
                sut, qsl, accuracy_settings(8), clock=WallClock())
        finally:
            sut.close()
        assert len(outputs_of(result)) == 8


class TestCrashHandling:
    def test_certain_crash_fails_queries_not_harness(self):
        """Every attempt crashes a worker: the run ends INVALID with
        QueryFailures recorded, and the harness survives."""
        plan = FaultPlan.single(FaultType.STALL, rate=1.0, seed=13)
        result = run_accuracy(workers=2, samples=16, crash_plan=plan)
        assert not result.valid
        assert result.log.completed_records() == []

    def test_resilient_sut_retries_crashed_batches_to_success(self):
        """The composition the fault layer promises: crash ->
        QueryFailure -> ResilientSUT retry -> fresh decision -> done.
        Single-stream accuracy walks 32 queries, 13 of which draw a
        worker-kill on their first attempt with this plan seed."""
        qsl = ArrayQSL(32)
        plan = FaultPlan.single(FaultType.STALL, rate=0.5, seed=21)
        inner = ParallelSUT(
            affine_factory, qsl, workers=2, seed=9, crash_plan=plan)
        sut = ResilientSUT(
            inner, RetryPolicy(max_attempts=8, backoff_base=0.001))
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
            min_duration=0.0, min_query_count=1)
        try:
            result = run_benchmark(sut, qsl, settings)
        finally:
            inner.close()
        assert result.valid, result.validity
        assert len(outputs_of(result)) == 32
        # Crashes really happened; the retries papered over them.
        assert inner.pool.stats.restarts > 0

    def test_a_reused_sut_replays_its_crash_schedule(self):
        """A second run of the same instance starts its crash schedule
        over: its injector bookkeeping equals a fresh instance's."""
        qsl = ArrayQSL(32)
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
            min_duration=0.0, min_query_count=1)

        def build():
            injector = FaultInjector(
                FaultPlan.single(FaultType.STALL, rate=0.5, seed=21))
            return injector, ParallelSUT(
                affine_factory, qsl, workers=3, seed=9,
                crash_plan=injector)

        def run(injector, inner):
            sut = ResilientSUT(
                inner, RetryPolicy(max_attempts=8, backoff_base=0.001))
            assert run_benchmark(sut, qsl, settings).valid
            return list(injector.trace), dict(injector.injected)

        fresh, reused = build(), build()
        try:
            expected = run(*fresh)
            run(*reused)
            assert run(*reused) == expected
        finally:
            fresh[1].close()
            reused[1].close()
        # Every kill fails its attempt, so the retries draw as many
        # decisions as at one worker.
        assert len(expected[0]) == 23

    def test_crashed_pool_recovers_for_the_next_run(self):
        qsl = ArrayQSL(8)
        sut = ParallelSUT(
            affine_factory, qsl, workers=2, seed=9)
        try:
            sut.pool.start()
            sut.pool.kill_worker(0)
            result = run_benchmark(sut, qsl, accuracy_settings(8))
        finally:
            sut.close()
        assert len(outputs_of(result)) == 8
        assert sut.pool.stats.restarts == 1


def quarter_per_sample(n):
    """Service model: a shard of ``n`` samples takes ``n / 4`` virtual
    seconds, exact in binary, so completion times compare with ``==``."""
    return 0.25 * n


def query_of(query_id, indices):
    return Query(id=query_id, samples=tuple(
        QuerySample(query_id * 100 + offset, index)
        for offset, index in enumerate(indices)))


class HandDriven:
    """A ``ParallelSUT`` started on a virtual loop by hand: what it
    resolves is noted as ``(query id, loop time, responses)``."""

    def __init__(self, workers, **sut_kwargs):
        self.loop = EventLoop()
        self.resolved = []
        self.sut = ParallelSUT(
            affine_factory, ArrayQSL(64), workers=workers, seed=9,
            service_time_fn=quarter_per_sample, **sut_kwargs)
        self.sut.start_run(self.loop, self._respond)

    def _respond(self, query, responses):
        self.resolved.append((query.id, self.loop.now, responses))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sut.close()


class TestDispatch:
    """Each query the SUT is issued is fanned out on its own, inside
    ``issue_query``: nothing waits in the SUT for a later query."""

    def test_an_issued_query_is_scheduled_before_issue_query_returns(self):
        with HandDriven(workers=4) as run:
            run.sut.issue_query(query_of(1, range(10)))
            # The shards have already run; only the completion is due.
            assert run.sut.pool.stats.per_worker_jobs == {
                0: 1, 1: 1, 2: 1, 3: 1}
            assert run.loop.pending() == 1
            run.sut.flush()  # nothing is held back for a flush to send
            assert run.loop.pending() == 1
            run.loop.run()
        [(query_id, when, responses)] = run.resolved
        # Shards of 3, 3, 2 and 2 samples: the query completes when the
        # slowest shard does.
        assert (query_id, when) == (1, 0.75)
        assert [float(resp.data) for resp in responses] == [
            3.0 * index + 1.0 for index in range(10)]

    def test_queries_issued_together_complete_in_issue_order(self):
        with HandDriven(workers=2) as run:
            for query_id in (1, 2, 3):
                run.sut.issue_query(query_of(query_id, range(4)))
            run.loop.run()
        assert [(query_id, when) for query_id, when, _ in run.resolved] == [
            (1, 0.5), (2, 0.5), (3, 0.5)]

    def test_a_query_smaller_than_the_pool_runs_one_job(self):
        with HandDriven(workers=4) as run:
            run.sut.issue_query(query_of(1, [7]))
            run.loop.run()
            jobs = dict(run.sut.pool.stats.per_worker_jobs)
        assert jobs == {0: 1}
        [(_, when, responses)] = run.resolved
        assert when == 0.25
        assert [float(resp.data) for resp in responses] == [22.0]

    def test_a_query_larger_than_the_pool_reaches_every_worker(self):
        registry = MetricsRegistry()
        with HandDriven(workers=4, registry=registry) as run:
            run.sut.issue_query(query_of(1, range(10)))
            run.loop.run()
            jobs = dict(run.sut.pool.stats.per_worker_jobs)
        assert jobs == {0: 1, 1: 1, 2: 1, 3: 1}
        per_worker = {
            labels["worker"]: child.value
            for labels, child in registry.get(
                "parallel_worker_samples_total").series()}
        assert per_worker == {"0": 3, "1": 3, "2": 2, "3": 2}
        assert registry.get("parallel_dispatches_total").value == 1

    def test_a_crashed_dispatch_fails_at_the_slowest_shard(self):
        plan = FaultPlan.single(FaultType.STALL, rate=1.0, seed=13)
        with HandDriven(workers=4, crash_plan=plan) as run:
            run.sut.issue_query(query_of(1, range(10)))
            run.loop.run()
        [(query_id, when, failure)] = run.resolved
        assert (query_id, when) == (1, 0.75)
        assert isinstance(failure, QueryFailure)
        assert "crashed" in failure.reason


def sleeper_factory():
    def predict(samples):
        import time
        time.sleep(30.0)
        return samples
    return predict


class TestJobTimeout:
    def test_a_hung_worker_fails_its_query_not_the_run(self):
        """``job_timeout`` reaches the pool: a worker that never answers
        is killed, and its query resolves as a failure."""
        qsl = ArrayQSL(4)
        sut = ParallelSUT(sleeper_factory, qsl, workers=1, seed=9,
                          job_timeout=0.3)
        try:
            result = run_benchmark(sut, qsl, accuracy_settings(4))
        finally:
            sut.close()
        assert not result.valid
        [(_, reason)] = result.log.first_failures(2)
        assert "job timeout after 0.3s" in reason


class TestInstruments:
    def test_parallel_metric_families_are_populated(self):
        registry = MetricsRegistry()
        run_accuracy(workers=2, registry=registry)
        # Offline accuracy mode issues one query carrying all samples,
        # so exactly one batch is dispatched.
        assert registry.get("parallel_dispatches_total").value == 1
        batch_size = registry.get("parallel_batch_size_samples").labels()
        assert batch_size.count == 1
        assert batch_size.percentile(0.5) == 48
        transfer = dict()
        for labels, child in registry.get(
                "parallel_transfer_bytes_total").series():
            transfer[labels["direction"]] = child.value
        assert transfer["in"] > 0
        assert transfer["out"] > 0
        per_worker = {
            labels["worker"]: child.value
            for labels, child in registry.get(
                "parallel_worker_samples_total").series()
        }
        assert sum(per_worker.values()) == 48
        assert set(per_worker) == {"0", "1"}
