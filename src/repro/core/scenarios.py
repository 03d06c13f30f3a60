"""Scenario drivers: query generation per paper Table II and Figure 4.

Each driver owns the timing policy of one scenario:

* **Single-stream** - issue one query, wait for completion, immediately
  issue the next.  Metric: 90th-percentile latency.
* **Multistream** - a new query of N samples every fixed arrival interval
  *t* (Table III).  If the SUT is still busy at a tick, that interval is
  skipped and the remaining queries are delayed by one interval; no more
  than 1% of queries may produce one or more skipped intervals.
* **Server** - queries with one sample each, arrival times drawn from a
  Poisson process with rate ``target_qps``.  No more than 1% (3% for
  translation) of queries may exceed the QoS latency bound.  Burst mode
  issues ``server_burst_size`` of them at each arrival.
* **Offline** - a single query carrying every sample (>= 24,576), issued
  at time zero; the SUT may reorder freely.  Metric: samples/second.

A fifth driver extends the paper's set: **Session**
(:class:`repro.sessions.driver.SessionDriver`) replays multi-turn
conversations - Poisson *session* arrivals whose turns are issued
strictly in order with think-time gaps, so queries are no longer
independent (see ``docs/sessions.md``).

Drivers are pure event-loop citizens: they schedule issue events and
react to completion callbacks, so they work identically under virtual
and measured time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .config import Scenario, TestMode, TestSettings
from .events import EventLoop
from .logging import QueryLog
from .query import Query, QueryFailure, StreamChunk
from .sampler import DRAW_BLOCK, QueryFactory, SampleSelector
from .sut import SystemUnderTest
from ..metrics import MetricsRegistry, exported


class SampleSource:
    """Produces the data set indices for successive queries."""

    def next(self, count: int) -> Optional[List[int]]:
        """Return ``count`` indices, or ``None`` when exhausted."""
        raise NotImplementedError

    @property
    def finite(self) -> bool:
        raise NotImplementedError


class PerformanceSource(SampleSource):
    """Endless with-replacement draws from the loaded performance set."""

    def __init__(self, selector: SampleSelector) -> None:
        self._selector = selector

    def next(self, count: int) -> Optional[List[int]]:
        return self._selector.draw(count)

    @property
    def finite(self) -> bool:
        return False


class AccuracySource(SampleSource):
    """One pass over the full data set, in order, without replacement."""

    def __init__(self, indices: Sequence[int]) -> None:
        self._indices = list(indices)
        self._pos = 0

    def next(self, count: int) -> Optional[List[int]]:
        if self._pos >= len(self._indices):
            return None
        chunk = self._indices[self._pos:self._pos + count]
        self._pos += len(chunk)
        return chunk

    @property
    def finite(self) -> bool:
        return True

    @property
    def remaining(self) -> int:
        return len(self._indices) - self._pos


class ArrivalGaps:
    """The run's Poisson arrival stream, as unit-rate exponential gaps.

    A dedicated stream so the traffic pattern is a pure function of the
    seed (Section V-B alternate-seed test).  The SeedSequence is
    constructed fresh per instance, so back-to-back runs in one process
    (retuning probes, the multitenant harness) replay identical arrivals
    instead of continuing a shared stream; the spawn child (key (0,)) is
    disjoint from both the loaded-set stream (child (1,) in LoadGen) and
    the sample-selection stream (root entropy in SampleSelector).
    ``tests/core/test_scenarios.py`` pins all three invariants.

    ``exponential(scale)`` is ``scale * standard_exponential()`` bit for
    bit, so the gaps are pre-drawn at unit rate, :data:`DRAW_BLOCK` at a
    time, and the caller multiplies by ``1 / rate`` with the rate in
    force when it asks - a rate burst rescales the same gaps.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(1)[0]
        )
        self._block: List[float] = []
        self._pos = DRAW_BLOCK

    def next(self) -> float:
        """The next gap of a rate-1 Poisson process."""
        pos = self._pos
        if pos == DRAW_BLOCK:
            self._block = self._rng.standard_exponential(DRAW_BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]


@dataclass
class DriverStats:
    """Scenario-specific bookkeeping surfaced to the validator."""

    issued_queries: int = 0
    start_time: float = 0.0
    issue_phase_end: float = 0.0
    #: Multistream: per-query count of skipped arrival intervals.
    skipped_intervals: dict = field(default_factory=dict)
    #: Multistream: total number of ticks that were skipped.
    total_skipped_ticks: int = 0
    #: Offline: number of batch queries issued (1 unless the minimum
    #: duration forced extras).
    offline_queries: int = 0
    #: Session scenario: conversation lifecycle counts.  Stalled
    #: sessions (started minus completed minus aborted at run end) are
    #: how the validator tells a lost turn from a drained run.  The
    #: session driver exports them (no other driver does).
    sessions_started: int = exported(
        "session_started_total",
        "Conversations the session driver has started")
    sessions_completed: int = exported(
        "session_completed_total",
        "Conversations that finished every planned turn")
    sessions_aborted: int = exported(
        "session_aborted_total",
        "Conversations abandoned after a failed turn")
    #: Watchdog: set when the overall-run timeout terminated the run.
    watchdog_fired: bool = False
    watchdog_time: float = 0.0
    #: Set when an event callback raised and the run was aborted
    #: (the RunAbortedError message, with virtual time and origin).
    aborted: Optional[str] = None


class _DriverInstruments:
    """What the driver writes to the registry, children bound once.

    The log is the driver's ledger: the ``loadgen_*`` and ``stream_*``
    counters and the outstanding-queries gauge are callbacks that read
    its totals at collection time, so issuing a query costs the registry
    nothing.  What the log cannot hold is written here - one latency
    observation per clean completion (plus TTFT/TPOT when it streamed)
    and the anomalies, which are labelled by a kind known only when one
    happens.
    """

    __slots__ = ("latency", "anomalies", "scenario", "ttft", "tpot")

    def __init__(self, registry: MetricsRegistry, scenario: Scenario,
                 log: QueryLog) -> None:
        self.scenario = scenario.value
        label = {"scenario": self.scenario}
        by_scenario = ("scenario",)
        registry.counter(
            "loadgen_queries_issued_total",
            "Queries the LoadGen has issued to the SUT",
            labels=by_scenario,
        ).labels_fn(lambda: log.query_count, **label)
        registry.counter(
            "loadgen_samples_issued_total",
            "Samples carried by issued queries",
            labels=by_scenario,
        ).labels_fn(lambda: log.issued_samples, **label)
        registry.counter(
            "loadgen_queries_completed_total",
            "Queries that completed cleanly",
            labels=by_scenario,
        ).labels_fn(lambda: log.completed_count, **label)
        registry.counter(
            "loadgen_queries_failed_total",
            "Queries that resolved as recorded failures",
            labels=by_scenario,
        ).labels_fn(lambda: log.failed_count, **label)
        registry.counter(
            "stream_chunks_total",
            "Accepted in-sequence stream chunks",
            labels=by_scenario,
        ).labels_fn(lambda: log.stream_chunks, **label)
        registry.counter(
            "stream_tokens_total",
            "Output tokens carried by accepted stream chunks",
            labels=by_scenario,
        ).labels_fn(lambda: log.stream_tokens, **label)
        registry.gauge(
            "loadgen_queries_outstanding",
            "Issued queries that have not yet reached a terminal state",
            fn=lambda: log.outstanding,
        )
        self.latency = registry.histogram(
            "loadgen_query_latency_seconds",
            "Issue-to-completion latency of clean queries",
            labels=by_scenario,
        ).labels(**label)
        self.anomalies = registry.counter(
            "loadgen_anomalies_total",
            "Duplicate and unsolicited completions observed by the referee",
            labels=("scenario", "kind"),
        )
        self.ttft = registry.histogram(
            "stream_ttft_seconds",
            "Time to first token (issue to first chunk) of streamed queries",
            labels=by_scenario,
        ).labels(**label)
        self.tpot = registry.histogram(
            "stream_tpot_seconds",
            "Mean inter-token interval after the first token, per query",
            labels=by_scenario,
        ).labels(**label)


class ScenarioDriver:
    """Common machinery for the four scenario drivers.

    The issue and completion paths run once per query, so they decide
    from plain attributes: what the settings and the source resolve to
    is read once here (neither changes during a run), and an event reads
    the clock once and hands that reading on - :meth:`_issue` stamps the
    query, :meth:`handle_completion` the outcome.  Only a realtime
    loop's clock moves inside an event; whoever decides something after
    the SUT has run reads it again there.
    """

    scenario: Scenario

    def __init__(
        self,
        loop: EventLoop,
        settings: TestSettings,
        sut: SystemUnderTest,
        source: SampleSource,
        log: QueryLog,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.loop = loop
        self.settings = settings
        self.sut = sut
        self.source = source
        self.log = log
        self.factory = QueryFactory()
        self.stats = DriverStats()
        self._outstanding = 0
        self._issue_phase_open = True
        self._finite = source.finite
        self._min_queries = settings.resolved_min_query_count
        self._min_duration = settings.resolved_min_duration
        self._keep_responses = settings.mode is TestMode.ACCURACY
        self._metrics = (
            _DriverInstruments(registry, settings.scenario, log)
            if registry is not None else None
        )

    # -- helpers ---------------------------------------------------------------

    @property
    def issue_phase_open(self) -> bool:
        """True while the driver may still issue queries (the LoadGen's
        realtime janitor and watchdog use this to tell a drained run
        from a stuck one)."""
        return self._issue_phase_open

    def _issue(self, indices: List[int], scheduled_time: Optional[float] = None,
               session=None) -> Query:
        now = self.loop.clock.now()
        query = self.factory.make_query(indices, now)
        if session is not None:
            query.session = session
        self.log.record_issue(query, now, scheduled_time=scheduled_time)
        self.stats.issued_queries += 1
        self._outstanding += 1
        self.sut.issue_query(query)
        return query

    def handle_completion(self, query: Query, responses) -> None:
        """Referee-side intake of whatever the SUT delivers.

        Clean completions and recorded failures resolve the query and
        advance the scenario; duplicate or unsolicited completions are
        logged as anomalies and otherwise ignored - a misbehaving SUT
        must be able to invalidate a run, never to corrupt or crash it.
        """
        now = self.loop.clock.now()
        # Every hot path delivers a plain list or a plain StreamChunk,
        # so the exact type settles those; subclasses, failures and any
        # other response sequence take the isinstance route.
        kind = type(responses)
        if kind is list:
            status = self.log.observe_completion(
                query, now, responses, keep_responses=self._keep_responses
            )
        elif kind is StreamChunk or isinstance(responses, StreamChunk):
            # Chunks are progress, not a terminal outcome: the log
            # records the timing and the stream totals, and the real
            # completion follows the last chunk.
            status = self.log.record_chunk(query, now, responses)
            metrics = self._metrics
            if metrics is not None and status not in ("chunk", "restart"):
                # anomaly / late / unsolicited - cold path
                metrics.anomalies.labels(
                    scenario=metrics.scenario, kind="stream_" + status
                ).inc()
            return
        elif isinstance(responses, QueryFailure):
            status = self.log.record_failure(query, now, responses.reason)
        else:
            status = self.log.observe_completion(
                query, now, responses, keep_responses=self._keep_responses
            )
        metrics = self._metrics
        if metrics is not None:
            if status == "completed":
                metrics.latency.observe(now - query.issue_time)
                if self.log.stream_chunks:  # else nobody streamed
                    record = self.log.record_for(query.id)
                    if record is not None and record.streamed:
                        # Final-attempt timing: a restarted stream reset
                        # these, so the histograms see what the client saw.
                        metrics.ttft.observe(record.ttft)
                        metrics.tpot.observe(record.tpot)
            elif status != "failed":
                # duplicate / unsolicited - cold path, resolve labels
                metrics.anomalies.labels(
                    scenario=metrics.scenario, kind=status
                ).inc()
        if status in ("completed", "failed"):
            self._outstanding -= 1
            self.on_completion(query)

    def _should_issue_more(self, now: float) -> bool:
        """A finite source stops by returning None; an endless one once
        both performance minimums (query count, duration) are met."""
        return (
            self._finite
            or self.stats.issued_queries < self._min_queries
            or now - self.stats.start_time < self._min_duration
        )

    def _close_issue_phase(self) -> None:
        if self._issue_phase_open:
            self._issue_phase_open = False
            self.stats.issue_phase_end = self.loop.now
            self.sut.flush()

    # -- scenario hooks ----------------------------------------------------------

    def start(self) -> None:
        """Schedule the first query/queries.  Called once by the LoadGen."""
        raise NotImplementedError

    def on_completion(self, query: Query) -> None:
        """React to a query that resolved (scenario specific)."""
        raise NotImplementedError


class SingleStreamDriver(ScenarioDriver):
    """Sequential queries of one sample; next issues on completion."""

    scenario = Scenario.SINGLE_STREAM

    def start(self) -> None:
        self.stats.start_time = self.loop.now
        self._issue_next()

    def _issue_next(self) -> None:
        indices = self.source.next(1)
        if indices is None:
            self._close_issue_phase()
            return
        self._issue(indices)

    def on_completion(self, query: Query) -> None:
        now = self.loop.clock.now()  # measured time moved while it was logged
        if self._should_issue_more(now):
            self._issue_next()
        else:
            self._close_issue_phase()


class ServerDriver(ScenarioDriver):
    """Poisson arrivals at ``settings.server_target_qps``.

    Each arrival issues ``settings.server_burst_size`` single-sample
    queries at one instant (burst mode), so arrivals come at the target
    rate divided by that size.
    """

    scenario = Scenario.SERVER

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        settings = self.settings
        self._gaps = ArrivalGaps(settings.seed)
        self._bursts = settings.server_rate_bursts or ()
        #: Arrivals per second, and the queries each one issues.
        self._rate = settings.server_target_qps / settings.server_burst_size
        self._per_arrival = range(settings.server_burst_size)
        #: When the pending arrival is due; one is pending at a time, so
        #: ``_arrive`` goes on the loop as it is, with no closure.  The
        #: next gap starts here, not at a (late) wall-clock reading.
        self._due = 0.0

    def start(self) -> None:
        self._due = self.stats.start_time = self.loop.now
        self._schedule_next_arrival()

    def _rate_multiplier(self, now: float) -> float:
        """Scheduled burst/lull factor at ``now`` (flash-crowd traffic).

        Piecewise-constant over the ``server_rate_bursts`` windows; the
        rate is evaluated when each gap is drawn, so a window boosts
        every arrival scheduled while it is active.
        """
        for start, duration, multiplier in self._bursts:
            if start <= now < start + duration:
                return multiplier
        return 1.0

    def _schedule_next_arrival(self) -> None:
        rate, due = self._rate, self._due
        if self._bursts:
            rate *= self._rate_multiplier(due)
        self._due = due = due + self._gaps.next() * (1.0 / rate)
        self.loop.schedule(due, self._arrive)

    def _arrive(self) -> None:
        for _ in self._per_arrival:
            indices = self.source.next(1)
            if indices is None:
                self._close_issue_phase()
                return
            self._issue(indices, scheduled_time=self._due)
        # Measured time has moved while the SUT ran, and the minimums
        # are judged on that.
        if self._should_issue_more(self.loop.clock.now()):
            self._schedule_next_arrival()
        else:
            self._close_issue_phase()

    def on_completion(self, query: Query) -> None:
        """Server queries are independent; nothing to do on completion."""


class MultiStreamDriver(ScenarioDriver):
    """Fixed arrival interval; busy SUT skips (and delays) intervals.

    Each tick is scheduled one interval after the last one was *due*,
    so under measured time the cadence does not drift by however late
    the loop ran a tick.
    """

    scenario = Scenario.MULTI_STREAM

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._interval = self.settings.resolved_multistream_interval
        self._samples_per_query = self.settings.multistream_samples_per_query
        #: When the pending tick is due; one is pending at a time, so
        #: ``_tick`` goes on the loop as it is, at ``_due + _interval``.
        self._due = 0.0
        self._current_query: Optional[Query] = None

    def start(self) -> None:
        now = self.stats.start_time = self.loop.now
        self._due = due = now + self._interval
        self.loop.schedule(due, self._tick)

    def _tick(self) -> None:
        current = self._current_query
        if current is not None:
            # SUT still busy: this interval is skipped; the in-flight
            # query is charged with producing it.
            skipped = self.stats.skipped_intervals
            skipped[current.id] = skipped.get(current.id, 0) + 1
            self.stats.total_skipped_ticks += 1
        else:
            indices = self.source.next(self._samples_per_query)
            if indices is None:
                self._close_issue_phase()
                return
            self._current_query = self._issue(
                indices, scheduled_time=self._due)
            if not self._should_issue_more(self.loop.clock.now()):
                self._close_issue_phase()
                return
        self._due = due = self._due + self._interval
        self.loop.schedule(due, self._tick)

    def on_completion(self, query: Query) -> None:
        if self._current_query is not None and query.id == self._current_query.id:
            self._current_query = None


class OfflineDriver(ScenarioDriver):
    """One big batch query at t=0; extras only to satisfy min duration.

    When the minimum duration forces additional batch queries, two are
    kept in flight (double buffering) so the SUT never drains between
    batches - a serial issue-wait-issue loop would insert pipeline
    bubbles that the real single-giant-query offline run does not have.
    """

    scenario = Scenario.OFFLINE

    def start(self) -> None:
        self.stats.start_time = self.loop.now
        self._issue_batch()
        if not self._finite:
            self._issue_batch()

    def _batch_size(self) -> int:
        if self._finite:
            remaining = getattr(self.source, "remaining", None)
            if remaining is not None:
                return max(1, remaining)
        return self.settings.resolved_offline_samples

    def _issue_batch(self) -> None:
        indices = self.source.next(self._batch_size())
        if indices is None:
            self._close_issue_phase()
            return
        self._issue(indices, scheduled_time=self.loop.now)
        self.stats.offline_queries += 1
        self.sut.flush()

    def on_completion(self, query: Query) -> None:
        now = self.loop.clock.now()  # measured time moved while it was logged
        if (
            not self._finite
            and now - self.stats.start_time < self._min_duration
        ):
            # Section III-D: run for at least 60 s, processing additional
            # queries/samples as required.
            self._issue_batch()
        elif self._outstanding == 0:
            self._close_issue_phase()


def make_driver(
    loop: EventLoop,
    settings: TestSettings,
    sut: SystemUnderTest,
    source: SampleSource,
    log: QueryLog,
    registry: Optional[MetricsRegistry] = None,
) -> ScenarioDriver:
    """Instantiate the driver matching ``settings.scenario``.

    With a ``registry`` the driver emits live telemetry (see
    ``docs/observability.md`` for the catalog); without one the hot
    paths skip instrumentation entirely.
    """
    if settings.scenario is Scenario.SESSION:
        # Lazy import: the session workload lives outside core (it is a
        # layer over the scenario machinery, like streaming and fleet),
        # and core must stay importable without it.
        from ..sessions.driver import SessionDriver

        return SessionDriver(loop, settings, sut, source, log,
                             registry=registry)
    driver_cls = {
        Scenario.SINGLE_STREAM: SingleStreamDriver,
        Scenario.MULTI_STREAM: MultiStreamDriver,
        Scenario.SERVER: ServerDriver,
        Scenario.OFFLINE: OfflineDriver,
    }[settings.scenario]
    return driver_cls(loop, settings, sut, source, log, registry=registry)
