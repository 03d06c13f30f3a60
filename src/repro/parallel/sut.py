"""Process-parallel SUT: shard each query across worker processes.

``ParallelSUT`` is the execution backend the ROADMAP's
"sharding/batching/multi-backend" item calls for: the LoadGen side of
the Fig. 3 boundary is untouched, while the SUT side fans each query it
is issued out over N worker processes (``repro.parallel.pool``) with
tensors travelling through shared memory (``repro.parallel.shm``).
Batching happens above it: an Offline query is the whole batch, and
``repro serve --backend parallel`` merges requests in the server's
queue before it hands the SUT one query.

Timing policy follows ``repro.sut.backend``: the wall-clock cost of a
dispatch is measured and replayed as virtual service time, or modelled
by a ``service_time_fn`` for deterministic studies.  For the parallel
case the model is applied *per shard* and the query completes at the
max over shards -- the straggler defines the query's latency, which is
exactly the scaling curve the Offline benchmark measures.

Determinism: each query is dispatched on its own when it is issued,
shards split its sample list contiguously, and outputs are recombined
in sample order -- so accuracy-mode results are reproducible
bit-for-bit whether one worker or eight did the arithmetic.

Crash handling: a worker killed mid-dispatch surfaces as
``QueryFailure`` for the query (never a hang), the dead worker is
respawned before the next dispatch, and ``ResilientSUT`` layered on top
turns those failures into retries -- the composition the fault-model
section of ``docs/architecture.md`` promises.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Optional, Sequence

from ..core.query import Query, new_response, sample_id_of
from ..core.sut import QuerySampleLibrary, Responder, SutBase
from ..core.events import EventLoop
from ..faults.plan import FaultInjector, FaultPlan, FaultType
from ..metrics import MetricsRegistry, export_ledger
from .pool import WorkerCrashed, WorkerPool, shard_evenly


class _ParallelInstruments:
    """What the SUT writes to the registry per dispatch (see
    ``docs/observability.md``); worker deaths and respawns are
    :class:`~repro.parallel.pool.PoolStats` fields the SUT exports.

    All counters are bumped from the loop thread that runs dispatches,
    satisfying the registry's single-writer contract.
    """

    def __init__(self, registry: MetricsRegistry, pool: WorkerPool) -> None:
        export_ledger(registry, lambda: pool.stats)
        workers = pool.workers
        self.dispatches = registry.counter(
            "parallel_dispatches_total",
            "Queries fanned out across the worker pool")
        self.batch_size = registry.histogram(
            "parallel_batch_size_samples",
            "Samples in each dispatch",
            base=1.0, growth=2.0 ** 0.25, buckets=72).labels()
        self.dispatch_seconds = registry.histogram(
            "parallel_dispatch_seconds",
            "Wall seconds per dispatch (ship + compute + collect)").labels()
        self.transfer_bytes = registry.counter(
            "parallel_transfer_bytes_total",
            "Bytes moved between the SUT and its workers",
            labels=("direction",))
        self.worker_samples = registry.counter(
            "parallel_worker_samples_total",
            "Samples each worker computed", labels=("worker",))
        self.worker_busy = registry.counter(
            "parallel_worker_busy_seconds_total",
            "Self-reported compute seconds per worker",
            labels=("worker",))
        # Pre-resolve per-worker children: dispatch is the hot path.
        self._in = self.transfer_bytes.labels(direction="in")
        self._out = self.transfer_bytes.labels(direction="out")
        self._samples = [
            self.worker_samples.labels(worker=str(i)) for i in range(workers)]
        self._busy = [
            self.worker_busy.labels(worker=str(i)) for i in range(workers)]


class ParallelSUT(SutBase):
    """Shard each query across a pool of worker processes.

    Parameters mirror the numpy backends in ``repro.sut.backend`` plus
    the pool knobs:

    ``worker_factory``
        Called once inside each worker process; returns
        ``predict(samples) -> outputs`` (a list of per-sample outputs,
        or one stacked ``ndarray``).  May accept one positional
        argument to receive the worker's deterministically seeded
        ``numpy`` Generator.
    ``service_time_fn``
        Optional ``f(shard_sample_count) -> seconds`` model applied per
        shard; the query completes at ``max`` over its non-empty
        shards.  Omitted, the measured wall time of the dispatch is
        replayed (virtual clock) or already elapsed (wall clock).
    ``crash_plan``
        A ``FaultPlan`` or ``FaultInjector`` whose ``STALL`` decisions
        are interpreted as "kill one worker holding a shard of this
        query before it dispatches", so every such decision fails its
        attempt -- decisions stay pure in (seed, query id, attempt),
        so crash schedules are reproducible and retry attempts draw
        fresh decisions.
    """

    def __init__(self, worker_factory: Callable, qsl: QuerySampleLibrary,
                 *, workers: int = 2,
                 seed: int = 0,
                 service_time_fn: Optional[Callable[[int], float]] = None,
                 crash_plan=None,
                 job_timeout: Optional[float] = None,
                 registry: Optional[MetricsRegistry] = None,
                 name: Optional[str] = None) -> None:
        super().__init__(name or f"parallel[{workers}]")
        self._qsl = qsl
        self.pool = WorkerPool(
            worker_factory, workers, seed=seed, job_timeout=job_timeout)
        self._service_time_fn = service_time_fn
        self._m = (_ParallelInstruments(registry, self.pool)
                   if registry is not None else None)
        if isinstance(crash_plan, FaultPlan):
            crash_plan = FaultInjector(crash_plan)
        self._crash_injector: Optional[FaultInjector] = crash_plan
        self._attempts: Dict[int, int] = {}

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.pool.start()
        self._attempts.clear()
        # A run's crash schedule starts over, as FaultySUT's does.
        if self._crash_injector is not None:
            self._crash_injector.reset()
        self._victims = itertools.cycle(range(self.pool.workers))

    def issue_query(self, query: Query) -> None:
        samples = [self._qsl.get_sample(sample.index)
                   for sample in query.samples]
        self.pool.ensure_alive()
        shards = shard_evenly(samples, self.pool.workers)
        self._inject_crash(query, shards)
        started = time.perf_counter()
        try:
            outcomes = self.pool.run_shards(shards)
        except WorkerCrashed as crash:
            elapsed = time.perf_counter() - started
            failure = str(crash)
            self.loop.schedule_after(
                self._duration(shards, elapsed),
                lambda: self.fail(query, failure))
            self._record(query, elapsed, ())
            return
        elapsed = time.perf_counter() - started
        # The pool checks each shard's output count, so the outputs
        # line up with the query's samples.
        outputs = [output for outcome in outcomes
                   for output in outcome.outputs]
        responses = list(map(new_response, zip(
            map(sample_id_of, query.samples), outputs)))
        self.loop.schedule_after(
            self._duration(shards, elapsed),
            lambda: self.complete(query, responses))
        self._record(query, elapsed, outcomes)

    def close(self) -> None:
        """Shut the worker pool down and release the arenas."""
        self.pool.close()

    def __enter__(self) -> "ParallelSUT":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch machinery -------------------------------------------

    def _inject_crash(self, query: Query,
                      shards: Sequence[Sequence[object]]) -> None:
        if self._crash_injector is None:
            return
        attempt = self._attempts.get(query.id, 0)
        self._attempts[query.id] = attempt + 1
        decision = self._crash_injector.decide(query.id, attempt)
        if decision is not None and decision.fault is FaultType.STALL:
            # The next worker in the cycle that holds a shard: a worker
            # with none would cost a respawn and fail nothing.
            for _ in range(self.pool.workers):
                victim = next(self._victims)
                if shards[victim]:
                    self.pool.kill_worker(victim)
                    return

    def _duration(self, shards: Sequence[Sequence[object]],
                  elapsed: float) -> float:
        if self._service_time_fn is not None:
            return max(
                (self._service_time_fn(len(shard))
                 for shard in shards if shard), default=0.0)
        # Wall-clock loops already spent the time inside this dispatch;
        # virtual loops replay the measurement as service time.
        return 0.0 if self.loop.realtime else elapsed

    def _record(self, query: Query, elapsed: float, outcomes) -> None:
        m = self._m
        if m is None:
            return
        m.dispatches.inc()
        m.batch_size.observe(query.sample_count)
        m.dispatch_seconds.observe(elapsed)
        # A crashed dispatch has no outcomes: what it shipped is not
        # counted as transferred.
        for index, outcome in enumerate(outcomes):
            if outcome.outputs:
                m._samples[index].inc(len(outcome.outputs))
                m._busy[index].inc(outcome.compute_seconds)
            m._in.inc(outcome.bytes_in)
            m._out.inc(outcome.bytes_out)
