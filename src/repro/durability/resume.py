"""Deterministic resume of an interrupted, journaled run.

The LoadGen is a pure function of its settings seed: two runs with the
same ``TestSettings`` issue the same queries with the same ids at the
same virtual times.  Resume leans on that purity — instead of trying to
restore the event loop's heap mid-flight, :func:`resume_run` re-runs the
scenario from t=0 against a :class:`ReplaySUT`:

* queries whose terminal record is already in the journal are *replayed*
  — the recorded completion (or failure) is scheduled at its journaled
  virtual time, and the real SUT never sees the query;
* queries the interrupted run never resolved are *recomputed* — they are
  forwarded to the real SUT exactly as a fresh run would.

Because issue times and latencies are reproduced exactly, the resumed
run's ``LoadGenResult`` is identical to an uninterrupted golden run
(asserted by the chaos smoke and ``benchmarks/test_ext_durability.py``).
Exactness requires the deterministic virtual clock and a backend whose
per-query timing is a pure function of the query (the recomputed tail
re-measures under a wall clock or a batch-sensitive backend); resume
still completes correctly there, it just re-times the tail.

Divergence — a journal from different settings, a replayed query whose
sample ids changed, journaled completions that are never re-issued — is
detected and raised as a classified
:class:`~repro.durability.journal.ResumeError` rather than silently
producing a half-wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.events import EventLoop
from ..core.loadgen import LoadGenResult, run_benchmark
from ..core.query import Query, QuerySampleResponse
from ..core.sut import QuerySampleLibrary, Responder, SutBase, SystemUnderTest
from ..metrics import MetricsRegistry, export_ledger, exported
from .journal import (
    FsyncPolicy,
    JournalState,
    ResumeError,
    RunJournal,
    _sample_ids_crc,
    read_run_journal,
)


@dataclass
class ReplayStats:
    """What the replay layer did during one resumed run."""

    replayed_completions: int = exported(
        "durability_replayed_completions_total",
        "Completions replayed from the journal instead of the SUT")
    replayed_failures: int = exported(
        "durability_replayed_failures_total",
        "Recorded failures replayed from the journal")
    recomputed_queries: int = exported(
        "durability_recomputed_queries_total",
        "Queries the interrupted run never resolved, re-sent to the SUT")
    divergence: Optional[str] = None


class ReplaySUT(SutBase):
    """Answers journaled queries from the journal, forwards the rest."""

    def __init__(
        self,
        inner: SystemUnderTest,
        state: JournalState,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(f"replay[{inner.name}]")
        self.inner = inner
        self.inners = (inner,)
        self._issued = dict(state.issued)
        self._completions = dict(state.completions)
        self._failures = dict(state.failures)
        self.stats = ReplayStats()
        if registry is not None:
            export_ledger(registry, lambda: self.stats)

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        # Inner completions flow straight through to the referee; the
        # replay layer only intervenes at issue time.
        self.inner.start_run(loop, responder)

    def issue_query(self, query: Query) -> None:
        entry = self._issued.get(query.id)
        if entry is not None:
            if (entry.sample_count != query.sample_count
                    or entry.ids_crc != _sample_ids_crc(query)):
                self.stats.divergence = (
                    f"query {query.id} was journaled with "
                    f"{entry.sample_count} samples (ids crc "
                    f"{entry.ids_crc:#010x}); the resumed run issued a "
                    "different query under the same id - settings or "
                    "code diverged from the journaled run")
                raise ResumeError("replay-divergence", self.stats.divergence)
        completion = self._completions.pop(query.id, None)
        if completion is not None:
            time, pairs = completion
            if pairs is None:
                responses = [QuerySampleResponse(s.id, None)
                             for s in query.samples]
            else:
                responses = [QuerySampleResponse(sid, data)
                             for sid, data in pairs]
            self.loop.schedule(
                max(time, self.loop.now),
                lambda q=query, r=responses: self.complete(q, r))
            self.stats.replayed_completions += 1
            return
        failure = self._failures.pop(query.id, None)
        if failure is not None:
            time, reason = failure
            self.loop.schedule(
                max(time, self.loop.now),
                lambda q=query, msg=reason: self.fail(q, msg))
            self.stats.replayed_failures += 1
            return
        self.stats.recomputed_queries += 1
        self.inner.issue_query(query)

    @property
    def leftover(self) -> int:
        """Journaled terminal records the run never re-issued."""
        return len(self._completions) + len(self._failures)


def resume_run(
    path: str,
    sut: SystemUnderTest,
    qsl: QuerySampleLibrary,
    *,
    registry: Optional[MetricsRegistry] = None,
    snapshot_period: Optional[float] = None,
    fsync: "FsyncPolicy | str" = FsyncPolicy.NEVER,
    fsync_interval: int = 64,
    checkpoint_period: Optional[float] = 0.5,
) -> LoadGenResult:
    """Resume an interrupted journaled run and return its full result.

    Reads the journal at ``path`` (tolerating a torn tail), re-runs the
    journaled ``TestSettings`` against a :class:`ReplaySUT` wrapping
    ``sut``, and appends the continuation's events to the same journal.
    The journal is sealed with an ``end`` record on success, so the file
    remains a complete, auditable record of the whole (interrupted +
    resumed) run.

    Raises :class:`~repro.durability.journal.JournalError` /
    :class:`~repro.durability.journal.ResumeError` with a classified
    ``reason`` when the journal is missing, unreadable, from another
    format version, or when replay diverges from the journaled run.
    """
    state = read_run_journal(path)
    journal = RunJournal(
        path, fsync=fsync, fsync_interval=fsync_interval,
        checkpoint_period=checkpoint_period, registry=registry)
    journal.resume_from(state)
    if registry is not None:
        registry.counter(
            "durability_resumes_total",
            "Times a journaled run was resumed").inc()
    replay = ReplaySUT(sut, state, registry=registry)
    result = run_benchmark(
        replay, qsl, state.settings,
        log_sample_probability=state.log_sample_probability,
        registry=registry, snapshot_period=snapshot_period,
        journal=journal,
    )
    if replay.stats.divergence is not None:
        raise ResumeError("replay-divergence", replay.stats.divergence)
    if replay.leftover:
        missing = sorted(
            list(replay._completions) + list(replay._failures))[:5]
        raise ResumeError(
            "replay-divergence",
            f"{replay.leftover} journaled terminal records were never "
            f"re-issued by the resumed run (query ids {missing}...) - "
            "the journal belongs to different settings or code")
    return result


def run_fingerprint(result: LoadGenResult) -> tuple:
    """Order-stable digest of everything a run result asserts.

    Two runs are "identical" for resume purposes when their fingerprints
    match: every query's identity, sample ids, issue/completion/failure
    times, failure reasons, logged response payloads, the computed
    metrics, and the validity verdict.
    """
    records = tuple([
        row if row[8] is None else row[:8] + (
            tuple([(resp.sample_id, repr(resp.data)) for resp in row[8]]),)
        for row in result.log.rows()
    ])
    return (
        records,
        result.metrics.primary_metric,
        result.metrics.query_count,
        result.metrics.sample_count,
        round(result.metrics.latency_p90, 12),
        round(result.metrics.latency_p99, 12),
        result.validity.valid,
        tuple(result.validity.reasons),
    )
