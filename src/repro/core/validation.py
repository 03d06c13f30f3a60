"""Run-validity rules (paper Sections III-C and III-D).

A performance run is VALID only if:

* every issued query completed;
* it issued at least the scenario/task minimum number of queries
  (Table V) - 1,024 for single-stream, 270,336 (90,112 for translation)
  for multistream and server, and a single query of >= 24,576 samples for
  offline;
* it ran for at least 60 seconds;
* server: no more than 1% (3% for translation) of queries exceeded the
  task's QoS latency bound (Table III);
* multistream: no more than 1% (3%) of queries produced one or more
  skipped arrival intervals;
* session (our extension): every planned conversation completed - a
  stalled or aborted session invalidates the run (``docs/sessions.md``).

On top of the paper's rules, the referee flags SUT misbehavior it
detected while the run was in flight (the paper's v0.5 round relied on
audits to catch exactly this, Section V): duplicate completions,
unsolicited responses for queries never issued, malformed response sets,
a fired watchdog, and aborted runs all yield their own INVALID reasons.

Accuracy-mode runs only require full, well-formed completion - their
pass/fail judgement belongs to the accuracy script
(``repro.accuracy.checker``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .config import Scenario, TestMode, TestSettings
from .logging import QueryLog
from .metrics import session_metrics_of, stream_slo_counts
from .scenarios import DriverStats


@dataclass
class ValidityReport:
    """Outcome of the validity checks for one run."""

    valid: bool
    reasons: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.valid


#: Cap on per-query diagnostics (issue times, reasons) copied into
#: ``ValidityReport.details`` - enough to see where a run stalled
#: without dragging a 270k-query log into the report.
_DETAIL_LIMIT = 16


def _check_misbehavior(
    log: QueryLog, stats: DriverStats,
    reasons: List[str], details: Dict[str, object],
) -> None:
    """SUT-misbehavior verdicts; they apply to every mode and scenario."""
    if stats.aborted:
        reasons.append(f"run aborted: {stats.aborted}")

    if stats.watchdog_fired:
        reasons.append(
            f"watchdog fired at {stats.watchdog_time:.3f}s with "
            f"{log.outstanding} queries outstanding"
        )
        details["watchdog_time"] = stats.watchdog_time

    if log.outstanding:
        stuck = log.outstanding_records()
        issue_times = sorted([r.issue_time for r in stuck])
        reasons.append(f"{log.outstanding} queries never completed")
        # Where the run stalled: the first/last stuck issue, plus a
        # sample of issue times for the report.
        details["outstanding_issue_times"] = issue_times[:_DETAIL_LIMIT]
        details["first_stuck_issue_time"] = issue_times[0]
        details["last_stuck_issue_time"] = issue_times[-1]

    if log.duplicate_completions:
        times = [t for _qid, t in log.duplicate_completions]
        reasons.append(
            f"{len(log.duplicate_completions)} duplicate completions"
        )
        details["duplicate_completion_count"] = len(log.duplicate_completions)
        details["first_duplicate_time"] = min(times)

    if log.unsolicited_responses:
        reasons.append(
            f"{len(log.unsolicited_responses)} unsolicited responses "
            "(completions for queries never issued)"
        )
        details["unsolicited_response_count"] = len(log.unsolicited_responses)

    if log.failed_count:
        failed = log.first_failures(_DETAIL_LIMIT)
        query_id, reason = failed[0]
        reasons.append(
            f"{log.failed_count} malformed responses "
            f"(e.g. query {query_id}: {reason})"
        )
        details["malformed_response_count"] = log.failed_count
        details["failure_reasons"] = [reason for _qid, reason in failed]

    if log.stream_chunk_anomalies:
        first = log.stream_chunk_anomalies[0]
        reasons.append(
            f"{len(log.stream_chunk_anomalies)} stream chunk anomalies "
            f"(e.g. query {first[0]}: {first[2]})"
        )
        details["stream_chunk_anomaly_count"] = len(log.stream_chunk_anomalies)
        details["stream_chunk_anomalies"] = [
            reason for _qid, _t, reason in
            log.stream_chunk_anomalies[:_DETAIL_LIMIT]
        ]

    if log.truncated_streams:
        reasons.append(
            f"{len(log.truncated_streams)} truncated streams (completed "
            "without a final chunk)"
        )
        details["truncated_stream_count"] = len(log.truncated_streams)


def validate_run(
    log: QueryLog, settings: TestSettings, stats: DriverStats
) -> ValidityReport:
    """Apply the v0.5 validity rules to a finished run."""
    reasons: List[str] = []
    details: Dict[str, object] = {}

    _check_misbehavior(log, stats, reasons, details)

    done = log.completed()
    completed = len(done.issue_times)
    if not completed:
        reasons.append("no queries completed")
        return ValidityReport(valid=False, reasons=reasons, details=details)

    # Duration runs from the driver's start (the clock the 60 s rule is
    # written against) to the final completion.
    duration = max(done.completion_times) - stats.start_time
    details["duration"] = duration
    details["query_count"] = log.query_count
    details["sample_count"] = done.sample_count

    if settings.mode is TestMode.ACCURACY:
        # Accuracy runs are exempt from the performance minimums.
        return ValidityReport(valid=not reasons, reasons=reasons, details=details)

    if duration < settings.resolved_min_duration:
        reasons.append(
            f"run duration {duration:.3f}s below minimum "
            f"{settings.resolved_min_duration:.0f}s"
        )

    scenario = settings.scenario
    if scenario is Scenario.OFFLINE:
        min_samples = settings.resolved_offline_samples
        if details["sample_count"] < min_samples:
            reasons.append(
                f"offline processed {details['sample_count']:.0f} samples, "
                f"minimum is {min_samples}"
            )
    else:
        min_queries = settings.resolved_min_query_count
        if log.query_count < min_queries:
            reasons.append(
                f"issued {log.query_count} queries, minimum is {min_queries}"
            )

    # The session scenario opts into the same per-query (per-turn) tail
    # rule when an explicit bound is configured - what the fleet
    # capacity sweep probes against; without one, session runs are
    # judged on conversation validity alone, as before.
    if scenario is Scenario.SERVER or (
            scenario is Scenario.SESSION
            and settings.server_latency_bound is not None):
        bound = settings.resolved_server_latency_bound
        violations = sum(
            [latency > bound for latency in done.latencies()])
        fraction = violations / completed
        details["latency_bound"] = bound
        details["violation_fraction"] = fraction
        budget = settings.resolved_max_violation_fraction
        if fraction > budget:
            reasons.append(
                f"{fraction:.4%} of queries exceeded the {bound * 1e3:.0f} ms "
                f"bound (budget {budget:.0%})"
            )

    # Token-level SLOs (streamed responses): violations draw on the same
    # tail budget as the classic latency rule, and goodput - queries/s
    # counting only fully SLO-compliant queries - lands in the details.
    ttft_target = settings.resolved_ttft_target
    tpot_target = settings.resolved_tpot_target
    if ttft_target is not None or tpot_target is not None:
        budget = settings.resolved_max_violation_fraction
        ttft_violations, tpot_violations, compliant = stream_slo_counts(
            done, settings)
        if ttft_target is not None:
            fraction = ttft_violations / completed
            details["ttft_target"] = ttft_target
            details["ttft_violation_fraction"] = fraction
            if fraction > budget:
                reasons.append(
                    f"{fraction:.4%} of queries exceeded the TTFT target "
                    f"{ttft_target * 1e3:.1f} ms (budget {budget:.0%})"
                )
        if tpot_target is not None:
            fraction = tpot_violations / completed
            details["tpot_target"] = tpot_target
            details["tpot_violation_fraction"] = fraction
            if fraction > budget:
                reasons.append(
                    f"{fraction:.4%} of queries exceeded the TPOT target "
                    f"{tpot_target * 1e3:.1f} ms (budget {budget:.0%})"
                )
        details["slo_compliant_queries"] = compliant
        details["goodput"] = (
            compliant / duration if duration > 0 else float("inf")
        )

    if scenario is Scenario.SESSION:
        # The session rule gates on whole conversations, not turns: every
        # planned session must have started and finished.  A *stalled*
        # session (started but neither completed nor aborted) is the
        # multi-turn-hang signature - a lost turn means the next one was
        # never issued, so outstanding-query checks alone can miss it.
        details["sessions_started"] = stats.sessions_started
        details["sessions_completed"] = stats.sessions_completed
        details["sessions_aborted"] = stats.sessions_aborted
        stalled = (stats.sessions_started - stats.sessions_completed
                   - stats.sessions_aborted)
        if stalled > 0:
            details["sessions_stalled"] = stalled
            reasons.append(
                f"{stalled} sessions stalled mid-conversation (a turn was "
                "issued but its answer never arrived)"
            )
        if stats.sessions_aborted > 0:
            reasons.append(
                f"{stats.sessions_aborted} sessions aborted after a failed "
                "turn"
            )
        required = settings.resolved_session_count
        if stats.sessions_completed < required:
            reasons.append(
                f"completed {stats.sessions_completed} sessions, minimum is "
                f"{required}"
            )
        session = session_metrics_of(done)
        if session is not None:
            details["session_latency_p50"] = session.session_latency_p50
            details["session_latency_p90"] = session.session_latency_p90
            details["session_latency_p99"] = session.session_latency_p99
            details["turn_ttft_p50"] = session.turn_ttft_p50
            details["turn_ttft_p90"] = session.turn_ttft_p90
            details["turn_ttft_p99"] = session.turn_ttft_p99
            details["sessions_per_second"] = session.sessions_per_second
            # Referee cross-check: the log-derived completion count must
            # agree with the driver's bookkeeping.
            if session.completed_session_count != stats.sessions_completed:
                reasons.append(
                    f"driver reports {stats.sessions_completed} completed "
                    f"sessions but the log shows "
                    f"{session.completed_session_count}"
                )

    if scenario is Scenario.MULTI_STREAM:
        offenders = sum([v > 0 for v in stats.skipped_intervals.values()])
        fraction = offenders / log.query_count if log.query_count else 0.0
        details["skipped_query_fraction"] = fraction
        details["total_skipped_ticks"] = stats.total_skipped_ticks
        budget = settings.resolved_max_violation_fraction
        if fraction > budget:
            reasons.append(
                f"{fraction:.4%} of queries produced skipped intervals "
                f"(budget {budget:.0%})"
            )

    return ValidityReport(valid=not reasons, reasons=reasons, details=details)
