"""Scenario performance metrics (paper Table II).

Each scenario reports a different figure of merit:

* single-stream: 90th-percentile query latency (seconds);
* multistream:   number of concurrent streams N sustained under the bound;
* server:        Poisson queries/second sustained under the QoS bound;
* offline:       throughput in samples/second.

The functions here compute those metrics from a completed
:class:`~repro.core.logging.QueryLog`; validity checking lives in
``repro.core.validation``.

Finalize runs over every record of a 270,336-query log, so each consumer
(:func:`compute_metrics`, ``validate_run``) takes the clean completions
from the log once, as columns (:meth:`QueryLog.completed`, no record
built per query), and hands them to the ``*_of`` helpers - one pass per
statistic and no call per query.  Nothing is memoised on the log:
hand-built logs change between calls.  Every reported number stays an
exact builtin ``float`` / ``int`` (digests hash ``repr``s), and every
mean stays ``sum(values) / n`` over the values in issue order, which is
what fixes its last bits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import Scenario, TestSettings
from .logging import Completions, QueryLog
from .stats import percentiles

#: The ranks every latency-like summary reports.
_P50_P90_P99 = (0.50, 0.90, 0.99)


@dataclass(frozen=True)
class StreamMetrics:
    """Token-level summary of a streamed run (see ``docs/streaming.md``).

    TTFT is time-to-first-token (issue to first chunk); TPOT is the mean
    inter-token interval after the first token, per query.  *Goodput* is
    the paper-faithful throughput-under-QoS generalisation: queries per
    second counting only queries that met **every** configured SLO.
    """

    #: Clean completions that streamed at least one chunk.
    streamed_query_count: int
    chunk_count: int
    token_count: int
    #: Total stream restarts observed (retries / reroutes); not misbehavior.
    restart_count: int
    ttft_mean: float
    ttft_p50: float
    ttft_p90: float
    ttft_p99: float
    tpot_mean: float
    tpot_p50: float
    tpot_p90: float
    tpot_p99: float
    #: Clean completions that met every configured token SLO.
    slo_compliant_count: int
    ttft_violations: int
    tpot_violations: int
    #: SLO-compliant queries per second over the run window.
    goodput: float


@dataclass(frozen=True)
class SessionMetrics:
    """Per-conversation summary of a session run (``docs/sessions.md``).

    Everything here is derived from the query log alone - sessions are
    reconstructed from the :class:`~repro.core.query.SessionTurn` tags
    on completed records, independently of the driver's bookkeeping, so
    the two can be cross-checked.  *Session latency* is the sum of a
    conversation's turn latencies (the time the user actually spent
    waiting, think time excluded); *turn TTFT* is effective TTFT over
    all session turns, streamed or not.
    """

    #: Distinct conversations with at least one clean completion.
    session_count: int
    #: Conversations whose every planned turn completed cleanly.
    completed_session_count: int
    #: Clean completions carrying a session tag.
    turn_count: int
    turns_per_session_mean: float
    session_latency_mean: float
    session_latency_p50: float
    session_latency_p90: float
    session_latency_p99: float
    turn_ttft_p50: float
    turn_ttft_p90: float
    turn_ttft_p99: float
    #: Fully completed conversations per second over the run window.
    sessions_per_second: float


@dataclass(frozen=True)
class ScenarioMetrics:
    """Summary statistics computed from one run's query log."""

    scenario: Scenario
    query_count: int
    sample_count: int
    duration: float
    latency_mean: float
    latency_p50: float
    latency_p90: float
    latency_p99: float
    #: Scenario-specific primary metric (Table II).
    primary_metric: float
    primary_metric_name: str
    #: Measured throughput in samples/second over the run window.
    throughput: float
    #: Token-level metrics; None when the run streamed no chunks.
    stream: Optional[StreamMetrics] = None
    #: Per-conversation metrics; None when no query carried a session tag.
    session: Optional[SessionMetrics] = None


def window_of(done: Completions) -> float:
    """Seconds from the first issue to the last completion of the clean
    completions ``done``, 0.0 when there are none."""
    if not done.issue_times:
        return 0.0
    return max(done.completion_times) - min(done.issue_times)


def scenario_metric_name(scenario: Scenario) -> str:
    """The Table II primary-metric label for ``scenario``."""
    return {
        Scenario.SINGLE_STREAM: "90th-percentile latency (s)",
        Scenario.MULTI_STREAM: "streams",
        Scenario.SERVER: "scheduled queries/s",
        Scenario.OFFLINE: "samples/s",
        Scenario.SESSION: "completed sessions/s",
    }[scenario]


def empty_metrics(log: QueryLog, settings: TestSettings) -> ScenarioMetrics:
    """Zeroed metrics for a run that completed no queries cleanly.

    Such a run is necessarily INVALID, but the referee still reports a
    result object (query counts, zero throughput) rather than crashing -
    the verdict, not an exception, is how a misbehaving SUT surfaces.
    """
    return ScenarioMetrics(
        scenario=settings.scenario,
        query_count=log.query_count,
        sample_count=0,
        duration=0.0,
        latency_mean=0.0,
        latency_p50=0.0,
        latency_p90=0.0,
        latency_p99=0.0,
        primary_metric=0.0,
        primary_metric_name=scenario_metric_name(settings.scenario),
        throughput=0.0,
    )


def effective_ttfts(done: Completions) -> List[float]:
    """TTFT of each clean completion, with the non-streamed fallback: a
    query answered in one atomic completion delivered its whole answer
    as its "first token"."""
    ttfts = done.latencies()
    issue = done.issue_times
    for at, first in zip(done.stream_at, done.first_chunk_times):
        ttfts[at] = first - issue[at]
    return ttfts


def _streamed_tpots(done: Completions) -> List[float]:
    """TPOT of each streamed completion (``QueryRecord.tpot``); zero for
    a single-token stream."""
    return [
        0.0 if last is None or tokens <= 1
        else (last - first) / (tokens - 1)
        for first, last, tokens in zip(
            done.first_chunk_times, done.last_chunk_times, done.token_counts)
    ]


def effective_tpots(done: Completions) -> List[float]:
    """TPOT of each clean completion, with the non-streamed fallback: a
    single atomic answer has no inter-token interval, so it contributes
    zero - as does a single-token stream."""
    tpots = [0.0] * len(done.issue_times)
    for at, tpot in zip(done.stream_at, _streamed_tpots(done)):
        tpots[at] = tpot
    return tpots


def stream_slo_counts(
    done: Completions, settings: TestSettings
) -> Tuple[int, int, int]:
    """``(TTFT violations, TPOT violations, compliant)`` over the clean
    completions ``done``: how many missed each configured token SLO and
    how many met every one.  An unset target is never missed."""
    count = len(done.issue_times)
    ttft_target = settings.resolved_ttft_target
    tpot_target = settings.resolved_tpot_target
    late_first = (
        [False] * count if ttft_target is None
        else [ttft > ttft_target for ttft in effective_ttfts(done)]
    )
    slow_tokens = (
        [False] * count if tpot_target is None
        else [tpot > tpot_target for tpot in effective_tpots(done)]
    )
    missed_any = sum([a or b for a, b in zip(late_first, slow_tokens)])
    return sum(late_first), sum(slow_tokens), count - missed_any


def stream_metrics_of(
    done: Completions, settings: TestSettings
) -> Optional[StreamMetrics]:
    """Token-level metrics over the clean completions ``done``, or None
    if none of them streamed."""
    if not done.stream_at:
        return None
    duration = window_of(done)
    # SLO compliance is judged over *all* clean completions (a query
    # that never streamed still either met or missed the targets via
    # the fallback semantics); percentiles are reported over the
    # streamed population, which is what TTFT/TPOT describe.
    issue = done.issue_times
    ttfts = [first - issue[at]
             for at, first in zip(done.stream_at, done.first_chunk_times)]
    tpots = _streamed_tpots(done)
    ttft_violations, tpot_violations, compliant = stream_slo_counts(
        done, settings)
    ttft_p50, ttft_p90, ttft_p99 = percentiles(ttfts, _P50_P90_P99)
    tpot_p50, tpot_p90, tpot_p99 = percentiles(tpots, _P50_P90_P99)
    n = len(ttfts)
    return StreamMetrics(
        streamed_query_count=n,
        chunk_count=sum(done.chunk_counts),
        token_count=sum(done.token_counts),
        restart_count=sum(done.stream_restarts),
        ttft_mean=sum(ttfts) / n,
        ttft_p50=ttft_p50,
        ttft_p90=ttft_p90,
        ttft_p99=ttft_p99,
        tpot_mean=sum(tpots) / n,
        tpot_p50=tpot_p50,
        tpot_p90=tpot_p90,
        tpot_p99=tpot_p99,
        slo_compliant_count=compliant,
        ttft_violations=ttft_violations,
        tpot_violations=tpot_violations,
        goodput=compliant / duration if duration > 0 else float("inf"),
    )


def session_metrics_of(done: Completions) -> Optional[SessionMetrics]:
    """Per-conversation metrics over the clean completions ``done``, or
    None if none of them carried a session tag.

    A session counts as *completed* when there is a clean completion
    for every one of its planned turns (``turn_count`` from the tag) - a
    referee-side reconstruction that never trusts the driver's own
    counters.
    """
    if not done.session_at:
        return None
    latencies = done.latencies()
    by_session: Dict[int, List[Tuple[int, object]]] = defaultdict(list)
    for at, turn in zip(done.session_at, done.sessions):
        by_session[turn.session_id].append((at, turn))
    completed_sessions = 0
    session_latencies = []
    for turns in by_session.values():
        if len(turns) == turns[0][1].turn_count:
            completed_sessions += 1
        session_latencies.append(sum([latencies[at] for at, _ in turns]))
    duration = window_of(done)
    latency_p50, latency_p90, latency_p99 = percentiles(
        session_latencies, _P50_P90_P99)
    ttfts = effective_ttfts(done)
    ttft_p50, ttft_p90, ttft_p99 = percentiles(
        [ttfts[at] for at in done.session_at], _P50_P90_P99)
    n = len(by_session)
    turn_count = len(done.session_at)
    return SessionMetrics(
        session_count=n,
        completed_session_count=completed_sessions,
        turn_count=turn_count,
        turns_per_session_mean=turn_count / n,
        session_latency_mean=sum(session_latencies) / n,
        session_latency_p50=latency_p50,
        session_latency_p90=latency_p90,
        session_latency_p99=latency_p99,
        turn_ttft_p50=ttft_p50,
        turn_ttft_p90=ttft_p90,
        turn_ttft_p99=ttft_p99,
        sessions_per_second=(
            completed_sessions / duration if duration > 0 else float("inf")
        ),
    )


def compute_metrics(log: QueryLog, settings: TestSettings) -> ScenarioMetrics:
    """Compute the Table II metric (plus latency summary) for a run."""
    done = log.completed()
    if not done.issue_times:
        raise ValueError("run completed no queries; cannot compute metrics")
    latencies = done.latencies()
    latency_p50, latency_p90, latency_p99 = percentiles(
        latencies, _P50_P90_P99)
    duration = window_of(done)
    sample_count = done.sample_count
    throughput = sample_count / duration if duration > 0 else float("inf")

    scenario = settings.scenario
    session = session_metrics_of(done)
    if scenario is Scenario.SINGLE_STREAM:
        primary = latency_p90
    elif scenario is Scenario.MULTI_STREAM:
        primary = float(settings.multistream_samples_per_query)
    elif scenario is Scenario.SERVER:
        primary = settings.server_target_qps
    elif scenario is Scenario.OFFLINE:
        primary = throughput
    elif scenario is Scenario.SESSION:
        primary = session.sessions_per_second if session is not None else 0.0
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown scenario {scenario}")

    return ScenarioMetrics(
        scenario=scenario,
        query_count=log.query_count,
        sample_count=sample_count,
        duration=duration,
        latency_mean=sum(latencies) / len(latencies),
        latency_p50=latency_p50,
        latency_p90=latency_p90,
        latency_p99=latency_p99,
        primary_metric=primary,
        primary_metric_name=scenario_metric_name(scenario),
        throughput=throughput,
        stream=stream_metrics_of(done, settings),
        session=session,
    )
