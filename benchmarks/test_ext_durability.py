"""Extension: durability chaos soak — crash, resume, self-heal.

The study behind ``docs/durability.md``: a journaled LoadGen run is
interrupted every way a production harness actually dies, and every
interruption must either resume to a result fingerprint-identical to an
uninterrupted golden run or fail loudly with a classified reason:

* interruption matrix — the journal is cut at seven byte offsets (clean
  and torn frame boundaries) and each stub resumes exactly, under every
  fsync policy;
* chaos soak — forked children SIGKILL themselves mid-run at several
  journal depths; runs over fault-injected "dropped connection"
  backends (terminal failures included) resume exactly; a simulated
  network run replays without the network; a crash-prone parallel pool
  self-heals under journaling; corrupted journals are rejected with
  classified errors;
* breaker outage study — the same scheduled backend outage is served
  unprotected, breaker-only, breaker+standby, and breaker+standby+hedge,
  showing load shedding, recovery transitions, and the verdict flip;
* journaling overhead — an Offline run pays < 5% wall clock for the
  write-ahead journal.
"""

import gc
import multiprocessing
import os
import signal
import statistics
import time

import pytest

from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.durability import (
    BreakerPolicy,
    JournalError,
    JournalWriter,
    ResumeError,
    RunJournal,
    SelfHealingSUT,
    read_frames,
    read_run_journal,
    resume_run,
    run_fingerprint,
)
from repro.faults import FaultPlan, FaultType, FaultySUT, ResilientSUT
from repro.faults.resilient import RetryPolicy
from repro.faults.sut import OutageSUT
from repro.metrics import MetricsRegistry
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.parallel import ParallelSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL, FixedLatencySUT
from tests.parallel.test_parallel_sut import ArrayQSL, affine_factory

SERVICE_TIME = 0.004
QUERIES = 200

SETTINGS = TestSettings(
    scenario=Scenario.SERVER, server_target_qps=250.0,
    server_latency_bound=0.05, min_query_count=QUERIES,
    min_duration=0.0, watchdog_timeout=60.0, seed=23)


def golden_sut():
    return FixedLatencySUT(SERVICE_TIME)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One journaled reference run: (fingerprint, raw journal bytes)."""
    path = tmp_path_factory.mktemp("durability") / "golden.rjnl"
    result = run_benchmark(golden_sut(), EchoQSL(total=512), SETTINGS,
                           journal=RunJournal(path))
    return run_fingerprint(result), path.read_bytes()


class TestInterruptionMatrix:
    """Cut the journal anywhere; the resumed run is byte-identical."""

    FRACTIONS = (0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)

    def test_seven_interruption_points_resume_exactly(
            self, benchmark, golden, tmp_path):
        reference, blob = golden

        def soak():
            rows = []
            for i, fraction in enumerate(self.FRACTIONS):
                path = tmp_path / f"cut{i}.rjnl"
                # The +i%4 stray bytes land many cuts mid-frame, so the
                # torn-tail path is exercised alongside clean cuts.
                path.write_bytes(blob[:int(len(blob) * fraction) + i % 4])
                records, truncated, _ = read_frames(path)
                registry = MetricsRegistry()
                resumed = resume_run(str(path), golden_sut(),
                                     EchoQSL(total=512), registry=registry)
                rows.append((
                    fraction, len(records), truncated,
                    registry.get(
                        "durability_replayed_completions_total").value,
                    registry.get(
                        "durability_recomputed_queries_total").value,
                    run_fingerprint(resumed) == reference,
                ))
            return rows

        rows = benchmark.pedantic(soak, rounds=1, iterations=1)
        print("\n  cut    records  torn  replayed  recomputed  exact")
        for fraction, records, torn, replayed, recomputed, exact in rows:
            print(f"  {fraction:4.0%} {records:9d} {str(torn):>5s} "
                  f"{replayed:9.0f} {recomputed:11.0f}  {exact}")
        for fraction, _, _, replayed, recomputed, exact in rows:
            assert exact, f"resume diverged at cut {fraction:.0%}"
            assert replayed + recomputed == QUERIES
        # The matrix spans the whole run: early cuts mostly recompute,
        # late cuts mostly replay.
        assert rows[0][3] < rows[-1][3]

    @pytest.mark.parametrize("fsync", ["always", "interval", "never"])
    def test_every_fsync_policy_survives_interruption(
            self, golden, tmp_path, fsync):
        reference, _ = golden
        path = tmp_path / f"{fsync}.rjnl"
        run_benchmark(golden_sut(), EchoQSL(total=512), SETTINGS,
                      journal=RunJournal(path, fsync=fsync))
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size // 2)
        resumed = resume_run(str(path), golden_sut(), EchoQSL(total=512))
        assert run_fingerprint(resumed) == reference


def _journal_and_die(path, kill_after):
    """Child body: journal the module's reference run, then SIGKILL
    ourselves after ``kill_after`` journal appends -- no cleanup, no
    atexit, exactly what a machine crash leaves behind."""

    def kill_switch(record_count):
        if record_count >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    run_benchmark(golden_sut(), EchoQSL(total=512), SETTINGS,
                  journal=RunJournal(path, on_append=kill_switch))
    os._exit(42)  # unreachable when the kill switch fires


def dropped_connection_sut():
    """A backend whose connection drops 25% of attempts; two attempts
    per query, so some queries fail *terminally* -- the journal must
    replay recorded failures, not only completions."""
    plan = FaultPlan.single(FaultType.DROP, 0.25, seed=11)
    return ResilientSUT(
        FaultySUT(golden_sut(), plan),
        RetryPolicy(max_attempts=2, attempt_timeout=0.03,
                    backoff_base=0.001),
        seed=6)


class TestChaosSoak:
    @pytest.mark.parametrize("kill_after", [30, 150, 320],
                             ids=["early", "mid", "late"])
    def test_sigkilled_children_resume_to_golden(
            self, golden, tmp_path, kill_after):
        reference, _ = golden
        path = str(tmp_path / f"kill{kill_after}.rjnl")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_journal_and_die, args=(path, kill_after))
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == -signal.SIGKILL

        state = read_run_journal(path)
        assert not state.ended
        resumed = resume_run(path, golden_sut(), EchoQSL(total=512))
        assert run_fingerprint(resumed) == reference
        assert read_run_journal(path).ended

    def test_dropped_connections_resume_exactly_failures_included(
            self, tmp_path):
        reference = run_fingerprint(
            run_benchmark(dropped_connection_sut(), EchoQSL(total=512),
                          SETTINGS))
        path = tmp_path / "drops.rjnl"
        run_benchmark(dropped_connection_sut(), EchoQSL(total=512),
                      SETTINGS, journal=RunJournal(path))
        records, _, _ = read_frames(path)
        failed = sum(1 for kind, _ in records if kind == "failed")
        assert failed > 0, "the drop plan produced no terminal failures"

        blob = path.read_bytes()
        for fraction in (0.25, 0.6, 0.9):
            cut = tmp_path / f"drops{int(fraction * 100)}.rjnl"
            cut.write_bytes(blob[:int(len(blob) * fraction)])
            resumed = resume_run(str(cut), dropped_connection_sut(),
                                 EchoQSL(total=512))
            assert run_fingerprint(resumed) == reference, fraction

    def test_simulated_network_run_replays_without_the_network(
            self, tmp_path):
        """Crash-during-sealing on a simulated-WAN run: every query has
        a terminal record, so the resume is pure replay and never has to
        bring the (gone) network back up."""
        model = ChannelModel(latency=0.002, jitter=0.001, seed=3)
        sut = SimulatedChannelSUT(golden_sut(), model)
        path = tmp_path / "wan.rjnl"
        result = run_benchmark(sut, EchoQSL(total=512), SETTINGS,
                               journal=RunJournal(path))
        records, _, _ = read_frames(path)
        assert records[-1][0] == "end"
        cut = tmp_path / "wan-cut.rjnl"
        with JournalWriter(cut) as w:
            for kind, fields in records[:-1]:
                w.append(kind, fields)
        offline_backend = FixedLatencySUT(SERVICE_TIME)
        resumed = resume_run(str(cut), offline_backend, EchoQSL(total=512))
        assert run_fingerprint(resumed) == run_fingerprint(result)
        assert offline_backend.issued == 0

    def test_worker_kills_mid_run_self_heal_under_journaling(
            self, tmp_path):
        """Faults x parallel x durability: a crash plan kills workers
        mid-run; the pool respawns them, retries paper over the failed
        batches, the journal seals -- and a truncated copy resumes to
        the same accuracy outputs with a fresh pool."""
        qsl = ArrayQSL(32)
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY,
            min_duration=0.0, min_query_count=1, seed=23)

        def stack():
            inner = ParallelSUT(
                affine_factory, qsl, workers=2, seed=9,
                crash_plan=FaultPlan.single(FaultType.STALL, 0.5, seed=21))
            return inner, ResilientSUT(
                inner, RetryPolicy(max_attempts=8, backoff_base=0.001))

        def outputs(result):
            return sorted(
                (resp.sample_id, float(resp.data))
                for record in result.log.completed_records()
                for resp in record.responses)

        path = tmp_path / "parallel.rjnl"
        inner, sut = stack()
        try:
            result = run_benchmark(sut, qsl, settings,
                                   journal=RunJournal(path))
        finally:
            inner.close()
        assert result.valid, result.validity
        assert inner.pool.stats.restarts > 0  # crashes really happened
        assert read_run_journal(path).ended

        blob = path.read_bytes()
        cut = tmp_path / "parallel-cut.rjnl"
        cut.write_bytes(blob[:int(len(blob) * 0.5)])
        inner2, sut2 = stack()
        registry = MetricsRegistry()
        try:
            resumed = resume_run(str(cut), sut2, qsl, registry=registry)
        finally:
            inner2.close()
        assert resumed.valid, resumed.validity
        assert outputs(resumed) == outputs(result)
        replayed = registry.get("durability_replayed_completions_total")
        recomputed = registry.get("durability_recomputed_queries_total")
        assert replayed.value + recomputed.value == 32

    def test_corrupted_journals_fail_loudly_with_classified_reasons(
            self, golden, tmp_path):
        reference, blob = golden

        ghost = tmp_path / "ghost.rjnl"
        with pytest.raises(JournalError) as info:
            resume_run(str(ghost), golden_sut(), EchoQSL(total=512))
        assert info.value.reason == "no-journal"

        noise = tmp_path / "noise.rjnl"
        noise.write_bytes(b"\x00" * 256)
        with pytest.raises(JournalError) as info:
            resume_run(str(noise), golden_sut(), EchoQSL(total=512))
        assert info.value.reason == "bad-magic"

        whole = tmp_path / "whole.rjnl"
        whole.write_bytes(blob)
        records, _, _ = read_frames(whole)
        tampered = tmp_path / "tampered.rjnl"
        with JournalWriter(tampered) as w:
            flipped = False
            for kind, fields in records[:-1]:
                if kind == "issued" and not flipped:
                    fields = dict(fields, crc=fields["crc"] ^ 0xFFFF)
                    flipped = True
                w.append(kind, fields)
        with pytest.raises(ResumeError) as info:
            resume_run(str(tampered), golden_sut(), EchoQSL(total=512))
        assert info.value.reason == "replay-divergence"

        # Mid-file bit rot is indistinguishable from a crash at that
        # offset: the CRC framing discards everything from the flipped
        # byte on and the run still resumes exactly.
        rotten = tmp_path / "rotten.rjnl"
        flipped_blob = bytearray(blob)
        flipped_blob[len(blob) // 2] ^= 0xFF
        rotten.write_bytes(bytes(flipped_blob))
        assert read_frames(rotten)[1]  # reader reports the truncation
        resumed = resume_run(str(rotten), golden_sut(), EchoQSL(total=512))
        assert run_fingerprint(resumed) == reference


BREAKER = BreakerPolicy(window=10, failure_threshold=0.5, min_samples=4,
                        open_duration=0.05, half_open_probes=2)
OUTAGE_START, OUTAGE_DURATION = 0.15, 0.3


class TestBreakerOutageStudy:
    """One scheduled outage, four serving configurations."""

    @pytest.fixture(scope="class")
    def study(self):
        def outage_primary():
            return OutageSUT(FixedLatencySUT(SERVICE_TIME),
                             OUTAGE_START, OUTAGE_DURATION)

        runs = {}
        result = run_benchmark(outage_primary(), EchoQSL(total=512),
                               SETTINGS)
        runs["unprotected"] = (result, None, None)
        for label, standby, hedge in (
                ("breaker", False, None),
                ("breaker+standby", True, None),
                ("breaker+standby+hedge", True, 0.008)):
            registry = MetricsRegistry()
            sut = SelfHealingSUT(
                outage_primary(),
                EchoSUT(latency=SERVICE_TIME, name="standby")
                if standby else None,
                policy=BREAKER, attempt_timeout=0.02, hedge_delay=hedge,
                registry=registry)
            result = run_benchmark(sut, EchoQSL(total=512), SETTINGS)
            runs[label] = (result, sut, registry)
        return runs

    @staticmethod
    def failed(result):
        return sum(1 for r in result.log.records() if r.failure_reason)

    @staticmethod
    def completed(result):
        return sum(1 for r in result.log.records()
                   if r.completion_time is not None)

    def test_study_table(self, benchmark, study):
        runs = benchmark.pedantic(lambda: study, rounds=1, iterations=1)
        print("\n  config                 verdict  shed  standby  hedged"
              "  failed  completed")
        for label, (result, sut, _) in runs.items():
            stats = sut.stats if sut is not None else None
            print(f"  {label:22s} {'VALID' if result.valid else 'INVALID':8s}"
                  f" {stats.shed_queries if stats else '-':>4} "
                  f"{stats.standby_queries if stats else '-':>7} "
                  f"{stats.hedged_queries if stats else '-':>6} "
                  f"{self.failed(result):>6d} "
                  f"{self.completed(result):>9d}")
        assert set(runs) == {"unprotected", "breaker", "breaker+standby",
                             "breaker+standby+hedge"}

    def test_unprotected_outage_hangs_queries(self, study):
        result, _, _ = study["unprotected"]
        assert not result.valid
        assert any("never completed" in r for r in result.validity.reasons)

    def test_breaker_sheds_load_and_recovers(self, study):
        result, sut, registry = study["breaker"]
        # Still INVALID (there is nowhere to send the load) but every
        # query resolves promptly instead of hanging to the watchdog.
        assert not result.valid
        assert sut.stats.shed_queries > 0
        assert registry.get("breaker_rejected_queries_total").value > 0
        pairs = [(source.value, target.value)
                 for _, source, target in sut.breaker.transitions]
        assert ("closed", "open") in pairs       # tripped on the outage
        assert ("half_open", "closed") in pairs  # recovered after it
        # Shedding turned watchdog hangs into prompt classified failures.
        assert self.completed(result) + self.failed(result) == QUERIES
        assert not result.stats.watchdog_fired

    def test_standby_absorbs_the_shed_load(self, study):
        bare, _, _ = study["breaker"]
        result, sut, _ = study["breaker+standby"]
        # Queries still die in the trip window (the documented residue),
        # but everything the open breaker rejects is rerouted, not shed.
        assert sut.stats.shed_queries == 0
        assert sut.stats.standby_queries > 0
        assert sut.stats.standby_completions >= sut.stats.standby_queries
        assert self.failed(result) < self.failed(bare)
        assert self.completed(result) > self.completed(bare)

    def test_hedging_rides_through_the_outage_valid(self, study):
        """With a hedge faster than the attempt deadline, the standby
        answers every outage query before it can fail -- the only
        configuration that keeps the verdict VALID.  (Flip side, per
        docs/durability.md: those hedge wins also hide the outage from
        the breaker, which may never trip.)"""
        result, sut, _ = study["breaker+standby+hedge"]
        assert result.valid, result.validity.reasons
        assert sut.stats.hedged_queries > 0
        assert sut.stats.hedge_wins > 0
        assert self.failed(result) == 0

    def test_breaker_metric_families_are_populated(self, study):
        _, _, registry = study["breaker"]
        for name in ("breaker_state", "breaker_transitions_total",
                     "breaker_rejected_queries_total",
                     "breaker_probe_queries_total",
                     "breaker_recorded_failures_total"):
            assert registry.get(name) is not None
        transitions = sum(
            child.value
            for _, child in registry.get(
                "breaker_transitions_total").series())
        assert transitions >= 3  # trip, probe, re-close at minimum


class TestJournalingOverhead:
    ROUNDS = 9

    def test_offline_journaling_overhead_under_five_percent(self, tmp_path):
        settings = TestSettings(
            scenario=Scenario.OFFLINE, offline_sample_count=40_000,
            min_duration=0.0, watchdog_timeout=60.0, seed=5)
        qsl = EchoQSL(total=40_960, performance=40_960)

        def timed(journal_path=None):
            journal = (RunJournal(journal_path)
                       if journal_path is not None else None)
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                result = run_benchmark(golden_sut(), qsl, settings,
                                       journal=journal)
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            assert result.valid, result.validity
            return elapsed

        # Back-to-back plain/journaled pairs share machine state (CPU
        # frequency, allocator arenas), so the per-pair ratio isolates
        # the journal's cost; the median discards outlier pairs that a
        # min-of-N comparison across separate loops would conflate.
        ratios = []
        for i in range(self.ROUNDS):
            plain = timed()
            journaled = timed(tmp_path / f"offline{i}.rjnl")
            ratios.append(journaled / plain)
        overhead = statistics.median(ratios) - 1.0
        print(f"\n  offline ({settings.offline_sample_count} samples): "
              f"median journaling overhead {overhead:+.2%} "
              f"over {self.ROUNDS} interleaved pairs")
        assert overhead < 0.05

    def test_server_per_record_journal_cost_is_reported(self, tmp_path):
        """Informational companion: the Server scenario journals ~2
        records per query, the worst case for write-ahead cost."""

        def timed(journal_path=None):
            journal = (RunJournal(journal_path)
                       if journal_path is not None else None)
            started = time.perf_counter()
            run_benchmark(golden_sut(), EchoQSL(total=512), SETTINGS,
                          journal=journal)
            return time.perf_counter() - started

        plain = min(timed() for _ in range(3))
        journaled = min(
            timed(tmp_path / f"server{i}.rjnl") for i in range(3))
        records = len(read_frames(tmp_path / "server0.rjnl")[0])
        per_record = max(0.0, journaled - plain) / records
        print(f"\n  server ({QUERIES} queries, {records} records): "
              f"plain {plain * 1e3:.1f} ms, journaled "
              f"{journaled * 1e3:.1f} ms "
              f"({per_record * 1e6:.2f} us/record)")
        assert records >= 2 * QUERIES
