"""The Load Generator (paper Section IV-B, Figure 3).

The LoadGen is MLPerf Inference's traffic generator and referee.  It

1. asks the SUT to load data set samples into memory (untimed),
2. issues query traffic according to the selected scenario,
3. records every query and response,
4. reports statistics and decides whether the run was valid.

This implementation runs the scenario logic on a deterministic
discrete-event loop (``repro.core.events``) so that a 270,336-query
server run finishes in seconds of wall time while preserving the paper's
timing semantics exactly.  SUTs that execute real numpy models measure
their wall-clock service time and replay it as virtual time (see
``repro.sut.backend``), so the same LoadGen drives both simulated and
real backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from .config import TestMode, TestSettings
from .events import Clock, EventLoop, RunAbortedError, VirtualClock
from .logging import QueryLog
from .metrics import ScenarioMetrics, compute_metrics, empty_metrics
from ..metrics import MetricsRegistry, Snapshot, SnapshotSampler
from .sampler import SampleSelector, accuracy_mode_indices
from .scenarios import (
    AccuracySource,
    DriverStats,
    PerformanceSource,
    SampleSource,
    make_driver,
)
from .sut import QuerySampleLibrary, SystemUnderTest
from .validation import ValidityReport, validate_run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <- durability)
    from ..durability.journal import RunJournal


@dataclass
class LoadGenResult:
    """Everything a run produces: the log, metrics, and the verdict."""

    settings: TestSettings
    log: QueryLog
    metrics: ScenarioMetrics
    validity: ValidityReport
    loaded_indices: List[int]
    #: Driver-side run accounting (watchdog / abort state lives here).
    stats: Optional[DriverStats] = None
    #: Periodic telemetry snapshots, when the run was handed a metrics
    #: registry and a snapshot period (see ``docs/observability.md``).
    snapshots: Optional[List[Snapshot]] = None

    @property
    def valid(self) -> bool:
        return self.validity.valid

    @property
    def primary_metric(self) -> float:
        return self.metrics.primary_metric

    def summary(self) -> str:
        """Human-readable run summary, in the spirit of the LoadGen's
        ``mlperf_log_summary.txt``."""
        lines = [
            "=" * 60,
            f"Scenario          : {self.settings.scenario.value}",
            f"Mode              : {self.settings.mode.value}",
            f"Result is         : {'VALID' if self.valid else 'INVALID'}",
            f"{self.metrics.primary_metric_name:<18}: {self.metrics.primary_metric:.6g}",
            f"Queries issued    : {self.metrics.query_count}",
            f"Samples processed : {self.metrics.sample_count}",
            f"Run duration (s)  : {self.metrics.duration:.3f}",
            f"Latency mean (ms) : {self.metrics.latency_mean * 1e3:.3f}",
            f"Latency p90 (ms)  : {self.metrics.latency_p90 * 1e3:.3f}",
            f"Latency p99 (ms)  : {self.metrics.latency_p99 * 1e3:.3f}",
        ]
        stream = self.metrics.stream
        if stream is not None:
            lines += [
                f"Streamed queries  : {stream.streamed_query_count} "
                f"({stream.token_count} tokens, "
                f"{stream.restart_count} restarts)",
                f"TTFT p50/p90/p99  : {stream.ttft_p50 * 1e3:.3f} / "
                f"{stream.ttft_p90 * 1e3:.3f} / "
                f"{stream.ttft_p99 * 1e3:.3f} ms",
                f"TPOT p50/p90/p99  : {stream.tpot_p50 * 1e3:.3f} / "
                f"{stream.tpot_p90 * 1e3:.3f} / "
                f"{stream.tpot_p99 * 1e3:.3f} ms",
                f"Goodput (q/s)     : {stream.goodput:.6g} "
                f"({stream.slo_compliant_count} SLO-compliant)",
            ]
        session = self.metrics.session
        if session is not None:
            lines += [
                f"Sessions          : {session.completed_session_count}/"
                f"{session.session_count} completed "
                f"({session.turn_count} turns, "
                f"{session.turns_per_session_mean:.2f} turns/session)",
                f"Session lat p50/p90/p99 : "
                f"{session.session_latency_p50 * 1e3:.3f} / "
                f"{session.session_latency_p90 * 1e3:.3f} / "
                f"{session.session_latency_p99 * 1e3:.3f} ms",
                f"Turn TTFT p50/p90/p99   : "
                f"{session.turn_ttft_p50 * 1e3:.3f} / "
                f"{session.turn_ttft_p90 * 1e3:.3f} / "
                f"{session.turn_ttft_p99 * 1e3:.3f} ms",
            ]
        for reason in self.validity.reasons:
            lines.append(f"  * {reason}")
        lines.append("=" * 60)
        return "\n".join(lines)


#: Realtime-mode janitor period, seconds: how often a wall-clock run
#: checks whether it has drained.  Bounds both the loop's idle wake-up
#: rate and the end-of-run detection latency.
_JANITOR_PERIOD = 0.010


@runtime_checkable
class RunService(Protocol):
    """A periodic participant clocked by the run's event loop.

    The LoadGen's own tickers - journal checkpointer, snapshot sampler,
    watchdog, realtime janitor - and external machinery (the
    ``repro.fleet`` autoscaler and outlier detector, the chaos
    orchestrator, custom controllers) ride the run's clock under one
    contract: :meth:`start` receives the loop plus a ``keep_going``
    predicate that turns false once the run has drained (a ticker that
    kept rescheduling past that point would never let a virtual loop
    finish), and :meth:`stop` is called after the loop exits (cancel
    pending ticks and let go of the loop and the predicate here: a
    service outlives its run, and both hold the run).  Services run on
    the loop thread, so they need no locking and are deterministic
    under the virtual clock.
    """

    def start(self, loop: EventLoop,
              keep_going: Callable[[], bool]) -> None: ...

    def stop(self) -> None: ...


class Ticker:
    """The periodic :class:`RunService` base: the first ``_tick`` is due
    one ``period`` after :meth:`start`, a tick that wants another stores
    it in ``_timer``, and :meth:`stop` cancels the latest (a no-op once
    it has fired).  Each subclass's ``_tick`` is its loop callback and a
    function of its own module: ``benchmarks/perf`` attributes callbacks
    by module, and leaves this module's out of wall-clock call counts as
    time-driven, not per query."""

    period: float
    loop: Optional[EventLoop] = None
    _timer = None

    def start(self, loop: EventLoop, keep_going: Callable[[], bool]) -> None:
        self.loop = loop
        self.keep_going = keep_going
        self._timer = loop.schedule_after(self.period, self._tick)

    def stop(self) -> None:
        """Cancel the pending tick and let go of the run's loop and
        predicate (a service outlives its run)."""
        if self._timer is not None:
            self._timer.cancel()
        self.loop = self.keep_going = None


class _Checkpointer(Ticker):
    """Journals a checkpoint every ``journal.checkpoint_period`` seconds
    of run time, the last one at the first tick after the run drained."""

    def __init__(self, journal: "RunJournal", log: QueryLog) -> None:
        self.journal = journal
        self.log = log
        self.period = journal.checkpoint_period

    def _tick(self) -> None:
        log = self.log
        self.journal.checkpoint(
            self.loop.now,
            issued=log.query_count,
            outstanding=log.outstanding,
            issued_samples=log.issued_samples,
        )
        if self.keep_going():
            self._timer = self.loop.schedule_after(self.period, self._tick)


class _Watchdog(Ticker):
    """Stops a run that is still stuck ``settings.watchdog_timeout``
    seconds in, and says so in the driver's stats for the referee."""

    def __init__(self, timeout: float, driver) -> None:
        self.period = timeout
        self.driver = driver

    def _tick(self) -> None:
        driver, loop = self.driver, self.loop
        finished = driver.log.outstanding == 0 and (
            loop.pending() == 0 or not driver.issue_phase_open
        )
        if finished:
            return  # run already finished; nothing is stuck
        driver.stats.watchdog_fired = True
        driver.stats.watchdog_time = loop.now
        loop.stop()


class _Janitor(Ticker):
    """A realtime loop cannot teleport past idle stretches, and
    completions arrive asynchronously via ``post`` - so this tick keeps
    the loop alive while queries are in flight and stops it as soon as
    the run has drained (rather than sleeping out the watchdog)."""

    period = _JANITOR_PERIOD

    def _tick(self) -> None:
        if self.keep_going():
            self._timer = self.loop.schedule_after(self.period, self._tick)
        else:
            self.loop.stop()


def judge(
    settings: TestSettings,
    log: QueryLog,
    stats: DriverStats,
    loaded: Sequence[int],
    snapshots: Optional[List[Snapshot]] = None,
) -> LoadGenResult:
    """The referee's verdict on whatever ``log`` holds once the loop has
    exited: the scenario's metrics, then the validity rules.  It first
    retires what the log still holds resolved into its columns."""
    log.sweep()
    if log.has_completions():
        metrics = compute_metrics(log, settings)
    else:
        metrics = empty_metrics(log, settings)
    return LoadGenResult(
        settings=settings,
        log=log,
        metrics=metrics,
        validity=validate_run(log, settings, stats),
        loaded_indices=list(loaded),
        stats=stats,
        snapshots=snapshots,
    )


def _choose_loaded_set(settings: TestSettings,
                       qsl: QuerySampleLibrary) -> List[int]:
    """Pick which library samples are resident for a performance run
    (untimed; Fig. 3 steps 1-4).

    At most ``performance_sample_count`` samples are loaded; the run
    then draws from this set with replacement.  Selection uses its own
    seed stream so it is reproducible but independent of the traffic
    pattern.
    """
    total = qsl.total_sample_count
    if total < 1:
        raise ValueError(f"query sample library '{qsl.name}' is empty")
    budget = settings.performance_sample_count
    if budget is not None and budget > total:
        raise ValueError(
            f"performance_sample_count {budget} exceeds the "
            f"{total} samples in query sample library '{qsl.name}'"
        )
    if budget is None:
        budget = qsl.performance_sample_count
    budget = min(budget, total)
    if budget < 1:
        raise ValueError("performance sample count must be >= 1")
    if budget >= total:
        return list(range(total))
    rng = np.random.default_rng(
        np.random.SeedSequence(settings.seed).spawn(2)[1]
    )
    picks = rng.choice(total, size=budget, replace=False)
    return sorted(picks.tolist())


def _run(
    tenants: Sequence[Tuple[SystemUnderTest, QuerySampleLibrary,
                            TestSettings]],
    clock: Optional[Clock] = None,
    services: Optional[Sequence[RunService]] = None,
    registry: Optional[MetricsRegistry] = None,
    log_sample_probability: float = 0.0,
    snapshot_period: Optional[float] = None,
    journal: Optional["RunJournal"] = None,
) -> List[LoadGenResult]:
    """The one run loop: build (the loop; per tenant its loaded set,
    log, source and driver), start (built-in services, the SUTs,
    ``services``, the drivers), loop, judge each tenant.  The journal
    and the snapshot sampler are one-tenant features."""
    loop = EventLoop(clock if clock is not None else VirtualClock())
    runs = []  # (sut, qsl, settings, loaded, log, driver), loaded ones
    try:
        for sut, qsl, settings in tenants:
            if settings.mode is TestMode.ACCURACY:
                loaded = accuracy_mode_indices(qsl.total_sample_count)
                source: SampleSource = AccuracySource(loaded)
            else:
                loaded = _choose_loaded_set(settings, qsl)
                source = PerformanceSource(
                    SampleSelector(loaded, seed=settings.seed))
            log = QueryLog(
                log_sample_probability=log_sample_probability,
                seed=settings.seed ^ 0xA0D17,
            )
            driver = make_driver(loop, settings, sut, source, log,
                                 registry=registry)
            qsl.load_samples(loaded)
            runs.append((sut, qsl, settings, loaded, log, driver))

        if runs[1:]:
            def busy() -> bool:
                return any(d.issue_phase_open or d.log.outstanding > 0
                           for *_, d in runs)
        else:  # one tenant: tickers call this every tick, so no any()
            def busy() -> bool:
                return driver.issue_phase_open or log.outstanding > 0

        # Start order is part of every same-seed digest: the heap
        # breaks time ties in scheduling order.
        builtin: List[RunService] = []
        if journal is not None:
            # Write-ahead: the header precedes the first query, and the
            # QueryLog's observer appends each lifecycle event before
            # the run proceeds past it.
            journal.begin(
                settings,
                keep_payloads=(
                    settings.mode is TestMode.ACCURACY
                    or log_sample_probability > 0.0),
                log_sample_probability=log_sample_probability,
            )
            log.observer = journal.on_log_event
            if journal.checkpoint_period is not None:
                builtin.append(_Checkpointer(journal, log))
        sampler: Optional[SnapshotSampler] = None
        if registry is not None and snapshot_period is not None:
            # Its baseline capture happens at start, before the SUT has
            # touched the registry.
            sampler = SnapshotSampler(registry, snapshot_period)
            builtin.append(sampler)
        for *_, settings, _, _, driver in runs:
            if settings.watchdog_timeout is not None:
                # It stops the shared loop, so every tenant stops with it.
                builtin.append(_Watchdog(settings.watchdog_timeout, driver))
        if loop.realtime:
            builtin.append(_Janitor())

        started: List[RunService] = []
        try:
            for service in builtin:
                service.start(loop, busy)
                started.append(service)
            for sut, *_, driver in runs:
                sut.start_run(loop, driver.handle_completion)
            for service in services or ():
                service.start(loop, busy)
                started.append(service)
            for *_, driver in runs:
                driver.start()
            loop.run()
        except RunAbortedError as abort:
            # A callback blew up mid-run.  The referee's job is to
            # return a verdict, not a traceback: record the abort
            # context and judge whatever the logs hold.
            for *_, driver in runs:
                driver.stats.aborted = str(abort)
        finally:
            for service in started:
                service.stop()
            # What the run bound into the stack (the loop, each layer's
            # responder) goes, and so do the events a stopped run left
            # due: each of those links closes a cycle through the
            # stack, the driver or the loop, and the run's records would
            # wait for a gen-2 collection.
            for sut, *_ in runs:
                end_run = getattr(sut, "end_run", None)
                if end_run is not None:
                    end_run()
            if loop._heap:  # empty once a run has drained: no call then
                loop.clear()

        if sampler is not None:
            # Close the series with the run's final state, stamped at
            # the loop's terminal time.
            sampler.sample_now()
        results = [judge(settings, log, driver.stats, loaded,
                         sampler.snapshots if sampler is not None else None)
                   for _, _, settings, loaded, log, driver in runs]
        if journal is not None:
            journal.finish(results[0])
        return results
    finally:
        if journal is not None:
            journal.close()
        for _, qsl, _, loaded, _, _ in runs:
            qsl.unload_samples(loaded)


def run_benchmark(
    sut: SystemUnderTest,
    qsl: QuerySampleLibrary,
    settings: TestSettings,
    log_sample_probability: float = 0.0,
    clock: Optional[Clock] = None,
    registry: Optional[MetricsRegistry] = None,
    snapshot_period: Optional[float] = None,
    journal: Optional["RunJournal"] = None,
    services: Optional[Sequence[RunService]] = None,
) -> LoadGenResult:
    """Execute one full run of ``sut`` and return its result (paper
    Fig. 3, the real LoadGen's ``StartTest``).

    ``log_sample_probability`` enables the accuracy-verification
    audit: in performance mode, each completed query's responses are
    retained with this probability.

    ``clock`` selects the time base.  The default ``VirtualClock``
    gives the deterministic fast path; passing a ``WallClock`` runs
    the identical scenario logic against real time - the measured
    path used when the SUT sits on the far side of a network
    (``repro.network``), where wall-clock send/receive time is the
    quantity under test.

    ``registry`` turns on live telemetry: the scenario driver emits
    the ``loadgen_*`` metrics into it (``docs/observability.md``
    lists them all).  With ``snapshot_period`` the registry is
    additionally sampled every that many seconds of *run* time
    (virtual or wall, matching ``clock``) and the series is returned
    in :attr:`LoadGenResult.snapshots` - under the virtual clock the
    snapshots are bit-for-bit reproducible across runs.

    ``journal`` makes the run durable: a
    ``repro.durability.RunJournal`` write-ahead logs every issued/
    completed/failed query plus periodic checkpoints, so a run
    killed mid-flight can be continued with
    ``repro.durability.resume_run`` (see ``docs/durability.md``).

    ``services`` attaches :class:`RunService` tickers - e.g. the
    ``repro.fleet`` autoscaler - started in the order given after
    the SUT is bound to the loop (a fleet service may scale the SUT
    it controls) and before the first query.  Whatever was started,
    built-in or given, is stopped once the loop exits - also when a
    later ``start`` raises.

    Once the loop has exited the stack lets go of the run
    (``SutBase.end_run`` and each service's ``stop``), so the run's
    record (log, records, queries) is freed by reference counting as
    soon as the caller drops the result, whether or not it keeps the
    SUT; a caller that drops the stack too frees that the same way.
    See ``docs/architecture.md`` ("Run lifecycle").
    """
    return _run(((sut, qsl, settings),), clock, services, registry,
                log_sample_probability, snapshot_period, journal)[0]


def run_tenants(tenants: Sequence[Tuple[SystemUnderTest, QuerySampleLibrary,
                                        TestSettings]]
                ) -> List[LoadGenResult]:
    """Run ``(sut, qsl, settings)`` tenants, in the order given, on one
    virtual-time loop: one result each, judged by its own scenario's
    rules.  Each has its own traffic, log, driver and watchdog, but the
    loop is shared, so a tenant's watchdog stops every tenant."""
    return _run(tenants)
