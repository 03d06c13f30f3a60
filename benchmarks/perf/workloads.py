"""The five benchmark workloads.

Each workload is a fixed list of *units* - the smallest pieces that can
be timed on their own - built from the workload seed.  The sizes here
are constants, identical on every commit: a run that must be shorter
runs fewer passes, never smaller units.  Every layer is driven through
its public functions; with a :class:`~spans.Tracer` the same stack is
built with :class:`~spans.SpanSUT` proxies at each SUT boundary.
``catalogue.WHY`` says why each of the five exists.
"""

from __future__ import annotations

import hashlib
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import Scenario, TestSettings
from repro.core.events import EventLoop, VirtualClock, WallClock
from repro.core.loadgen import run_benchmark
from repro.durability import RunJournal, SelfHealingSUT, run_fingerprint
from repro.faults import (ChaosEvent, ChaosOrchestrator, ChaosSchedule,
                          ResilientSUT)
from repro.fleet import OutlierDetector, OutlierPolicy, ReplicaSet
from repro.harness import experiments, tuning
from repro.harness.netbench import SyntheticQSL, parallel_echo_backend
from repro.metrics import MetricsRegistry
from repro.network.client import NetworkSUT
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.sessions import (audit_replica_caches, per_replica_cache_factory,
                            replay_graph_from_settings)
from repro.streaming import StreamingSUT, StreamModel
from repro.sut.echo import EchoSUT
from repro.sut.fleet import build_fleet

from spans import SpanSUT, Tracer

SCRATCH_DIR = os.path.join(".benchmarks", "perf")


@dataclass
class Outcome:
    """What one unit run produced."""

    host_s: float
    issued: int
    #: Queries failed, refused or never resolved.
    failed: int
    #: Broken invariants (empty when the unit is sound).
    problems: List[str]
    #: Deferred digest material: everything the run asserts, as a value
    #: whose ``repr`` is stable across same-seed runs.
    witness: Callable[[], object]
    #: Deferred exactly-once and audit checks too slow for every pass.
    deep_check: Callable[[], List[str]] = lambda: []
    #: Handles on the run (result, fleet ...) for the traced pass's
    #: metrics; dropped with the outcome after each pass.
    info: Dict[str, object] = field(default_factory=dict)
    #: Small numbers the runner keeps from every pass.
    keep: Dict[str, object] = field(default_factory=dict)


@dataclass
class Unit:
    name: str
    run: Callable[[Optional[Tracer]], Outcome]
    #: False for units timed for their own metrics only (tcp phase B).
    feeds_host: bool = True


class Timed:
    """A unit's timed region.  The count pass's profiler, when there is
    one, is on for exactly this region and nothing else."""

    __slots__ = ("profiler", "seconds", "_start")

    def __init__(self, profiler) -> None:
        self.profiler = profiler
        self.seconds = 0.0

    def __enter__(self) -> "Timed":
        if self.profiler is not None:
            self.profiler.enable()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self._start
        if self.profiler is not None:
            self.profiler.disable()


def digest(material: object) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def with_quartiles(value: float, samples) -> dict:
    """A metric entry: the estimator's value with the quartiles of the
    samples it was picked from (passes, segments) beside it."""
    if len(samples) < 2:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"value": value, "median": median, "q1": q1, "q3": q3}


# -- shared pieces ------------------------------------------------------------

def server_settings(seed: int, queries: int, qps: float = 1000.0,
                    bound: float = 10.0) -> TestSettings:
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=bound, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=3600.0, seed=seed)


def referee_problems(result) -> List[str]:
    """O(1) exactly-once evidence the log keeps as it goes."""
    log = result.log
    problems = []
    if log.outstanding:
        problems.append(f"{log.outstanding} queries never resolved")
    if log.duplicate_completions:
        problems.append(
            f"{len(log.duplicate_completions)} duplicate completions")
    if log.unsolicited_responses:
        problems.append(
            f"{len(log.unsolicited_responses)} unsolicited responses")
    return problems


def exactly_once_problems(result) -> List[str]:
    """The full walk: issued = completed + failed, ids unique."""
    records = result.log.records()
    problems = []
    ids = {r.query.id for r in records}
    if len(ids) != len(records):
        problems.append("duplicate query ids in the log")
    resolved = sum(1 for r in records if r.completed != r.failed)
    if resolved != len(records):
        problems.append(
            f"{len(records) - resolved} of {len(records)} queries did not "
            "resolve exactly once")
    return problems


def outcome_of(result, host_s: float, *, require_valid: bool = True,
               trails: Callable[[], object] = lambda: (),
               deep: Callable[[], List[str]] = lambda: [],
               info: Optional[dict] = None,
               keep: Optional[dict] = None) -> Outcome:
    problems = referee_problems(result)
    if require_valid and not result.valid:
        problems.append("run INVALID: " + "; ".join(result.validity.reasons))
    failed = len(result.log.failed_records()) + result.log.outstanding
    return Outcome(
        host_s=host_s, issued=result.log.query_count, failed=failed,
        problems=problems,
        witness=lambda: (run_fingerprint(result), trails()),
        deep_check=lambda: exactly_once_problems(result) + deep(),
        info=info or {}, keep=keep or {})


class EchoCheckSUT:
    """Warm-up proxy: every echoed payload must equal its sample index."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.checked = 0
        self.mismatches = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def start_run(self, loop, responder) -> None:
        def checked(query, responses):
            if isinstance(responses, list):
                index = {s.id: s.index for s in query.samples}
                for response in responses:
                    self.checked += 1
                    if response.data != index.get(response.sample_id):
                        self.mismatches += 1
            responder(query, responses)

        self._inner.start_run(loop, checked)

    def issue_query(self, query) -> None:
        self._inner.issue_query(query)

    def flush(self) -> None:
        self._inner.flush()


class Workload:
    """Base: a seed, a unit list, and what the traced pass reads."""

    name = ""
    #: Default pass count when no time budget is given.
    passes = 1
    #: False on the wall clock: no digest of times, and the count pass
    #: profiles loop callbacks only (waiting makes a varying number of
    #: calls).
    virtual = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Set for the warm-up unit only: wraps the top-level SUT.
        self.echo_check: Optional[EchoCheckSUT] = None
        self._check_echo = False
        #: A cProfile.Profile during the count pass, else None.
        self.profiler = None

    def timed(self) -> Timed:
        return Timed(self.profiler if self.virtual else None)

    def open(self) -> None:
        """Acquire what outlives a unit (the tcp server child)."""

    def close(self) -> None:
        """Release it."""

    def units(self) -> List[Unit]:
        raise NotImplementedError

    def count_units(self) -> List[Unit]:
        """Units the cProfile count pass runs."""
        return [u for u in self.units() if u.feeds_host]

    def traced_units(self) -> List[Unit]:
        return [u for u in self.units() if u.feeds_host]

    def warmup(self) -> Outcome:
        """The first unit, untimed, with the payload check attached."""
        self._check_echo = True
        try:
            return self.units()[0].run(None)
        finally:
            self._check_echo = False

    def _top(self, sut, tracer: Optional[Tracer]):
        """Wrap the stack's top-level SUT for tracing / warm-up."""
        if tracer is not None:
            sut = SpanSUT(sut, tracer, "core.scenarios")
        if self._check_echo:
            sut = self.echo_check = EchoCheckSUT(sut)
        return sut

    def e2e_extras(self, best_sum_s: float, kept: List[dict]) -> dict:
        """Workload-specific end-to-end metrics, name -> entry with a
        ``value``; ``kept`` holds every unit run's ``Outcome.keep``."""
        return {}

    def notes(self, kept: List[dict]) -> dict:
        """Facts to print beside the metrics (sample counts ...)."""
        return {}

    def layer_metrics(self, tracer: Tracer, outcomes: List[Outcome],
                      kept: List[dict], quick: bool) -> dict:
        """Per-layer metrics after the traced pass, whose outcomes these
        are.  Here: what the trace gives per query whatever the stack
        (the runner keeps those the catalogue lists for this workload);
        subclasses add their own."""
        queries = sum(o.issued for o in outcomes)
        out = {name: tracer.self_s(layer, kind) / queries * 1e6
               for name, (layer, kind) in SELF_US_PER_QUERY.items()}
        out["core.scenarios.completion_us_per_query"] = (
            tracer.self_s("core.scenarios", "completion")
            + tracer.self_s("core.scenarios", "chunk")) / queries * 1e6
        out.update((name, tracer.calls(layer, kind) / queries)
                   for name, (layer, kind) in CALLS_PER_QUERY.items())
        return out


#: metric -> (layer, span kind or None for all): traced self time.
SELF_US_PER_QUERY = {
    "core.events.self_us_per_query": ("core.events", None),
    "core.sampler.draw_us_per_query": ("core.sampler", None),
    "core.scenarios.issue_us_per_query": ("core.scenarios", "event"),
    "core.query.self_us_per_query": ("core.query", None),
    "core.logging.record_us_per_query": ("core.logging", "record"),
    "core.metrics.finalize_us_per_query": ("core.metrics", None),
    "streaming.plan_us_per_query": ("streaming.model", None),
    "streaming.self_us_per_query": ("streaming.sut", None),
    "sessions.cache.self_us_per_turn": ("sessions.cache", None),
    "sessions.driver.self_us_per_turn": ("sessions.driver", None),
    "fleet.replicaset.self_us_per_query": ("fleet.replicaset", None),
    "fleet.balancer.rank_us_per_query": ("fleet.balancer", None),
    "faults.degraded.self_us_per_query": ("faults.sut", None),
    "network.client.issue_us_per_query": ("network.client", "issue"),
    "sut.simulated.self_us_per_query": ("sut.simulated", None),
}
#: metric -> (layer, span kind): spans counted.
CALLS_PER_QUERY = {
    "core.events.scheduled_per_query": ("core.events", "schedule"),
    "core.sampler.draw_calls_per_query": ("core.sampler", "draw"),
    "streaming.chunks_per_query": ("core.logging", "chunk"),
    "streaming.events_per_query": ("streaming.sut", "event"),
}


# -- server_core --------------------------------------------------------------

class _ServerRun(Workload):
    """One Server-scenario run at 1,000 qps against ``_sut``."""

    queries = 0

    def _sut(self, tracer):
        raise NotImplementedError

    def _run(self, tracer) -> Outcome:
        sut = self._sut(tracer)
        settings = server_settings(self.seed, self.queries)
        with self.timed() as timed:
            result = run_benchmark(sut, SyntheticQSL(), settings)
        return outcome_of(result, timed.seconds,
                          trails=lambda: self._trails(result),
                          info={"result": result})

    def _trails(self, result) -> object:
        return ()

    def units(self) -> List[Unit]:
        return [Unit(f"server-{self.queries}", self._run)]


class ServerCore(_ServerRun):
    name = "server_core"
    passes = 100
    queries = 10_000

    def _sut(self, tracer):
        return self._top(EchoSUT(latency=0.5e-3), tracer)

    def layer_metrics(self, tracer, outcomes, kept, quick) -> dict:
        out = super().layer_metrics(tracer, outcomes, kept, quick)
        out["core.events.bare_us_per_event"] = bare_event_us()
        out.update(ladder_rungs(self.seed, repeats=3 if quick else 7))
        return out


def bare_event_us(events: int = 20_000, repeats: int = 5) -> float:
    """The loop alone: no-op callbacks, best of ``repeats``."""
    best = float("inf")
    for _ in range(repeats):
        loop = EventLoop(VirtualClock())
        for i in range(events):
            loop.schedule(i * 1e-6, _noop)
        start = perf_counter()
        loop.run()
        best = min(best, perf_counter() - start)
    return best / events * 1e6


def _noop() -> None:
    pass


def ladder_rungs(seed: int, repeats: int) -> dict:
    """Stack rungs with no end-to-end workload of their own: host
    us/query each adds over the bare rung (EchoSUT, 5,000-query Server
    run), best of ``repeats`` on either side."""
    queries = 5_000
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    journal_path = os.path.join(SCRATCH_DIR, "ladder.journal")

    def best_us(make_sut, count=queries, reps=repeats, **kwargs):
        best = float("inf")
        sut = None
        for _ in range(reps):
            sut = make_sut()
            extra = {k: v() for k, v in kwargs.items()}
            try:
                start = perf_counter()
                result = run_benchmark(
                    sut, SyntheticQSL(), server_settings(seed, count),
                    **extra)
                host_s = perf_counter() - start
            finally:
                close = getattr(sut, "close", None)
                if callable(close):
                    close()
            if not result.valid:
                raise RuntimeError(
                    f"ladder rung {sut.name} INVALID: "
                    + "; ".join(result.validity.reasons))
            best = min(best, host_s / result.log.query_count * 1e6)
        return best, sut

    def echo():
        return EchoSUT(latency=0.5e-3)

    base, _ = best_us(echo)
    journal, _ = best_us(echo, journal=lambda: RunJournal(journal_path))
    journal_bytes = os.path.getsize(journal_path) / queries
    os.remove(journal_path)
    resilient, _ = best_us(lambda: ResilientSUT(echo(), seed=seed))
    healing, _ = best_us(lambda: SelfHealingSUT(echo()))
    channel, _ = best_us(
        lambda: SimulatedChannelSUT(echo(), ChannelModel(seed=seed)))
    # The pool round-trips every sample through a worker process, so a
    # fifth of the queries and fewer repeats keep the rung to ~1 s.
    par_queries = queries // 5
    par_base, _ = best_us(echo, count=par_queries, reps=min(repeats, 3))
    parallel, pool_sut = best_us(
        lambda: parallel_echo_backend(workers=2, seed=seed),
        count=par_queries, reps=min(repeats, 3))
    pool = pool_sut.pool.stats
    dispatches = pool.shm_dispatches + pool.pickle_dispatches
    return {
        "durability.journal.added_us_per_query": journal - base,
        "durability.journal.bytes_per_query": journal_bytes,
        "faults.resilient.added_us_per_query": resilient - base,
        "durability.healing.added_us_per_query": healing - base,
        "network.simulated.added_us_per_query": channel - base,
        "parallel.added_us_per_sample": parallel - par_base,
        "parallel.shm_dispatch_share": (
            pool.shm_dispatches / dispatches if dispatches else 0.0),
    }


# -- stream_server ------------------------------------------------------------

class StreamServer(_ServerRun):
    name = "stream_server"
    passes = 50
    queries = 2_000

    def _sut(self, tracer):
        inner = EchoSUT(latency=0.5e-3)
        if tracer is not None:
            inner = SpanSUT(inner, tracer, "streaming.sut")
        model = StreamModel(first_token_delay=1e-3, inter_token_delay=1e-4,
                            seed=self.seed)
        return self._top(
            StreamingSUT(inner, model=model, name="streaming-echo"), tracer)

    def _trails(self, result) -> object:
        log = result.log
        return (log.stream_chunks, log.stream_tokens,
                tuple((r.first_chunk_time, r.last_chunk_time, r.chunk_count)
                      for r in log.records()))

    def layer_metrics(self, tracer, outcomes, kept, quick) -> dict:
        out = super().layer_metrics(tracer, outcomes, kept, quick)
        out["core.logging.chunk_us_per_chunk"] = (
            tracer.self_s("core.logging", "chunk")
            / tracer.calls("core.logging", "chunk") * 1e6)
        return out


# -- session_fleet_chaos ------------------------------------------------------

class SessionFleetChaos(Workload):
    name = "session_fleet_chaos"
    passes = 40
    sessions = 1_200
    session_qps = 200.0
    replicas = 4
    #: The gray window must eject by latency score, not trip the
    #: breaker: x80 keeps the sick replica's answers (~160 ms) under the
    #: 500 ms attempt deadline and far over 3x the fleet median.
    gray_factor = 80.0
    attempt_timeout = 0.5

    def settings(self) -> TestSettings:
        return TestSettings(
            scenario=Scenario.SESSION, server_target_qps=self.session_qps,
            server_latency_bound=0.2, session_count=self.sessions,
            session_turns_min=2, session_turns_max=6,
            session_think_time_mean=0.05, min_duration=0.0,
            watchdog_timeout=600.0, seed=self.seed)

    def schedule(self) -> ChaosSchedule:
        span = self.sessions / self.session_qps  # virtual seconds of arrivals
        return ChaosSchedule((
            ChaosEvent(0.25 * span, 0.20 * span, "gray-failure",
                       "replica:1", self.gray_factor),
            ChaosEvent(0.55 * span, 0.20 * span, "zone-outage", "z1"),
        ))

    def _run(self, tracer, telemetry: bool = True) -> Outcome:
        """``telemetry=False`` drops the registry and its snapshot
        sampler: the lower rung of the metrics ladder."""
        registry = MetricsRegistry() if telemetry else None
        orchestrator = ChaosOrchestrator(self.schedule(), registry=registry)

        def backend(index):
            sut = EchoSUT(latency=2e-3)
            if tracer is not None:
                sut = SpanSUT(sut, tracer, "faults.sut")
            return sut

        valves = orchestrator.wrap_factory(backend)
        caches = per_replica_cache_factory(8192, registry=registry)
        if tracer is not None:
            plain_valves, plain_caches = valves, caches
            valves = lambda i: SpanSUT(  # noqa: E731
                plain_valves(i), tracer, "fleet.replicaset")
            caches = lambda i, inner: SpanSUT(  # noqa: E731
                plain_caches(i, inner), tracer, "fleet.replicaset")
        fleet = ReplicaSet(
            valves, initial_replicas=self.replicas,
            max_replicas=self.replicas, zones=2, policy="zone-spread",
            attempt_timeout=self.attempt_timeout, seed=self.seed,
            registry=registry, cache_factory=caches)
        if tracer is not None:
            fleet.policy.rank_for = tracer.spanned(
                fleet.policy.rank_for, "fleet.balancer", "rank", 0)
        orchestrator.bind(fleet)
        detector = OutlierDetector(fleet, OutlierPolicy(), seed=self.seed,
                                   registry=registry)
        settings = self.settings()
        sut = self._top(fleet, tracer)
        period = 0.05 if telemetry else None
        with self.timed() as timed:
            result = run_benchmark(
                sut, SyntheticQSL(), settings,
                services=[orchestrator, detector], registry=registry,
                snapshot_period=period)
        host_s = timed.seconds

        stats = fleet.stats
        problems = []
        if stats.zone_kills < 1:
            problems.append("no zone was killed")
        if stats.ejections < 1:
            problems.append("the outlier detector ejected nothing")
        if stats.reroutes < 1:
            problems.append("no query was rerouted")
        if orchestrator.active_faults:
            problems.append(
                f"{orchestrator.active_faults} chaos windows never closed")
        injected = sum(1 for d in orchestrator.trace if d.action == "inject")
        if injected != len(self.schedule().events):
            problems.append(f"only {injected} chaos windows fired")

        def deep() -> List[str]:
            audits = audit_replica_caches(
                fleet.caches, replay_graph_from_settings(settings))
            return [f"replica {i} cache audit: {found[0]}"
                    for i, found in audits.items() if found]

        def trails() -> object:
            return (tuple(orchestrator.trace), tuple(detector.trace),
                    tuple(r.issued for r in fleet.replicas),
                    stats.summary(),
                    tuple(len(c.events) for _, c in sorted(
                        fleet.caches.items())))

        outcome = outcome_of(
            result, host_s, trails=trails, deep=deep,
            info={"result": result, "fleet": fleet,
                  "detector": detector, "orchestrator": orchestrator})
        outcome.problems.extend(problems)
        return outcome

    def units(self) -> List[Unit]:
        return [Unit(f"sessions-{self.sessions}", self._run)]

    def layer_metrics(self, tracer, outcomes, kept, quick) -> dict:
        outcome = outcomes[0]
        fleet = outcome.info["fleet"]
        result = outcome.info["result"]
        turns = outcome.issued
        caches = [c for _, c in sorted(fleet.caches.items())]
        reused = sum(c.stats.tokens_reused for c in caches)
        missed = sum(c.stats.tokens_missed for c in caches)
        later = [e for c in caches for e in c.events
                 if e.turn_index >= 1 and e.kind in ("hit", "partial", "miss")]
        warm = sum(1 for e in later if e.kind != "miss")
        sessions = result.stats.sessions_started

        def per_call(layer, kind):
            return (tracer.self_s(layer, kind)
                    / tracer.calls(layer, kind) * 1e6)

        ladder = {True: [], False: []}
        for _ in range(2 if quick else 3):  # interleaved: bursts hit both
            for telemetry, hosts in ladder.items():
                hosts.append(self._run(None, telemetry).host_s)
        out = super().layer_metrics(tracer, outcomes, kept, quick)
        out.update({
            "sessions.cache.token_hit_rate":
                reused / (reused + missed),
            "sessions.cache.evictions":
                sum(c.stats.evictions for c in caches),
            "sessions.replay.plan_us_per_session":
                tracer.self_s("sessions.replay") / sessions * 1e6,
            "fleet.affinity_hit_share": warm / len(later),
            "fleet.reroutes_per_query": fleet.stats.reroutes / turns,
            "fleet.rescued_queries": fleet.stats.rescued_queries,
            "fleet.ejections": fleet.stats.ejections,
            "fleet.outlier.tick_us": per_call("fleet.outlier", "tick"),
            "faults.chaos.tick_us": per_call("faults.chaos", "tick"),
            "metrics.registry.added_us_per_query":
                (min(ladder[True]) - min(ladder[False])) / turns * 1e6,
            "metrics.snapshot.us_per_sample":
                per_call("metrics.snapshot", "event"),
        })
        return out


# -- paper_sweep --------------------------------------------------------------

class PaperSweep(Workload):
    name = "paper_sweep"
    passes = 5
    #: build_fleet() indices: dc-cpu-xeon, fpga-cloud, edge-gpu,
    #: auto-asic, mobile-dsp-a, edge-asic-hailo - CPU/FPGA/GPU/ASIC/DSP.
    systems = (7, 10, 13, 15, 20, 29)
    #: The count pass profiles these only (a full sweep under cProfile
    #: takes 15 s): edge-gpu's eight submissions (SingleStream,
    #: MultiStream, Offline) plus dc-cpu-xeon's translation Server search.
    count_subset = ("edge-gpu", "dc-cpu-xeon/machine_translation/server")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: (queries, lost, valid, metric) per run_benchmark call of the
        #: unit being run.
        self._probes: List[tuple] = []
        self._run_benchmark = None

    def open(self) -> None:
        # run_submission returns no query count, so the capacity
        # searches' run_benchmark carries one O(1) counting wrapper,
        # timed passes included: ~112 calls per 4 s sweep.
        self._run_benchmark = inner = tuning.run_benchmark
        probes = self._probes

        def counting(*args, **kwargs):
            result = inner(*args, **kwargs)
            log = result.log
            lost = log.outstanding + (
                log.issued_samples - result.metrics.sample_count)
            probes.append((log.query_count, lost, result.valid,
                           result.metrics.primary_metric))
            return result

        tuning.run_benchmark = counting

    def close(self) -> None:
        if self._run_benchmark is not None:
            tuning.run_benchmark = self._run_benchmark
            self._run_benchmark = None

    def _unit(self, system, task, scenario) -> Unit:
        name = f"{system.name}/{task.value}/{scenario.value}"

        def run(tracer) -> Outcome:
            del self._probes[:]
            with self.timed() as timed:
                record = experiments.run_submission(
                    system, task, scenario, seed=self.seed)
            host_s = timed.seconds
            probes = tuple(self._probes)
            problems = []
            if record is None or not record.valid:
                problems.append(f"{name} produced no valid record")
            metric = None if record is None else repr(record.metric)
            return Outcome(
                host_s=host_s, issued=sum(p[0] for p in probes),
                failed=sum(p[1] for p in probes), problems=problems,
                witness=lambda: (name, metric, probes),
                info={"probes": len(probes),
                      "search": scenario in (Scenario.SERVER,
                                             Scenario.MULTI_STREAM)})

        return Unit(name, run)

    def units(self) -> List[Unit]:
        fleet = build_fleet()
        units = [self._unit(fleet[i], task, scenario)
                 for i in self.systems
                 for task, scenario in fleet[i].submissions()]
        if len(units) != 39:
            raise RuntimeError(f"expected 39 submissions, got {len(units)}")
        return units

    def count_units(self) -> List[Unit]:
        system, single = self.count_subset
        return [u for u in self.units()
                if u.name.startswith(system + "/") or u.name == single]

    def e2e_extras(self, best_sum_s, kept) -> dict:
        return {"sweep_host_s": {"value": best_sum_s}}

    def layer_metrics(self, tracer, outcomes, kept, quick) -> dict:
        queries = sum(o.issued for o in outcomes)
        searches = [o.info["probes"] for o in outcomes if o.info["search"]]
        out = super().layer_metrics(tracer, outcomes, kept, quick)
        out.update({
            "harness.tuning.probes_per_search":
                sum(searches) / len(searches),
            "harness.tuning.queries_per_sweep": queries,
        })
        return out


# -- tcp_server ---------------------------------------------------------------

class TcpServer(Workload):
    name = "tcp_server"
    passes = 11
    virtual = False
    closed_queries = 2_000
    target_qps = 1_000.0
    latency_bound = 5e-3
    segment_s = 2.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._server: Optional[subprocess.Popen] = None
        self._address = None
        self.server_stats: dict = {}

    def open(self) -> None:
        if hasattr(os, "sched_setaffinity"):
            # One CPU for the client's two threads and the server alike
            # (the server child inherits it).  Left to the scheduler, a
            # closed-loop round trip costs 160-230 us while they happen
            # to share a CPU and 440-610 us while every wake-up crosses
            # CPUs, and one mode can last a whole run.  The offered rate
            # in phase B is the same either way.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--backend", "echo", "--latency-ms", "0", "--workers", "1",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        banner = self._server.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)\s*$", banner)
        if match is None:
            self.close()
            raise RuntimeError(f"server child did not come up: {banner!r}")
        self._address = (match.group(1), int(match.group(2)))

    def close(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.terminate()
        try:
            server.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()

    def _run(self, tracer, settings, require_valid, keep_of) -> Outcome:
        client = NetworkSUT(self._address, connections=1)
        sut = self._top(client, tracer)
        try:
            with self.timed() as timed:
                result = run_benchmark(sut, SyntheticQSL(), settings,
                                       clock=WallClock())
        finally:
            client.close()
        if client.server_stats:
            self.server_stats = client.server_stats
        keep = keep_of(result, client)
        keep["retries"] = client.stats.retries
        keep["sent"] = client.stats.queries_sent
        # Wall-clock times differ run to run; the issued sample
        # sequence does not.
        outcome = outcome_of(result, timed.seconds,
                             require_valid=require_valid, keep=keep)
        outcome.witness = lambda: tuple(
            (r.query.id, r.query.sample_indices)
            for r in result.log.records())
        return outcome

    def _closed(self, tracer) -> Outcome:
        settings = TestSettings(
            scenario=Scenario.SINGLE_STREAM,
            min_query_count=self.closed_queries, min_duration=0.0,
            watchdog_timeout=60.0, seed=self.seed)

        def keep_of(result, client):
            timings = list(client.transport_records.values())
            return {
                "bytes": client.stats.bytes_sent + client.stats.bytes_received,
                "wire_s": statistics.fmean(t.network_time for t in timings),
                "server_s": statistics.fmean(t.server_time for t in timings),
            }

        return self._run(tracer, settings, True, keep_of)

    def _open_loop(self, tracer, qps: Optional[float] = None,
                   seconds: Optional[float] = None) -> Outcome:
        qps = qps or self.target_qps
        settings = TestSettings(
            scenario=Scenario.SERVER, server_target_qps=qps,
            server_latency_bound=self.latency_bound, min_query_count=1,
            min_duration=seconds or self.segment_s, watchdog_timeout=60.0,
            seed=self.seed)

        def keep_of(result, client):
            records = result.log.records()
            done = [r for r in records if r.completed and not r.failed]
            latency = [r.completion_time - r.scheduled_time for r in done]
            late = [r.issue_time - r.scheduled_time for r in records]
            issue_span = records[-1].issue_time - records[0].issue_time
            return {
                "segment": {
                    "samples": len(latency),
                    "p50_ms": percentile(latency, 50) * 1e3,
                    "p99_ms": percentile(latency, 99) * 1e3,
                    "late_p99_ms": percentile(late, 99) * 1e3,
                    "offered_qps": (len(records) - 1) / issue_span,
                    "within": sum(1 for x in latency
                                  if x <= self.latency_bound),
                    "sent": len(records),
                }}

        # Interference may push >1% past the bound and turn the verdict
        # INVALID; that is what slo_met_share reports, not a broken run.
        outcome = self._run(tracer, settings, False, keep_of)
        outcome.witness = lambda: ()
        return outcome

    def units(self) -> List[Unit]:
        return [
            Unit(f"closed-{self.closed_queries}", self._closed),
            Unit(f"open-{self.target_qps:g}qps-{self.segment_s:g}s",
                 self._open_loop, feeds_host=False),
        ]

    def e2e_extras(self, best_sum_s, kept) -> dict:
        segments = [k["segment"] for k in kept if "segment" in k]
        sent = sum(s["sent"] for s in segments)
        out = {name: with_quartiles(min(values), values)
               for name, key in (("latency_p50_ms", "p50_ms"),
                                 ("latency_p99_ms", "p99_ms"),
                                 ("issue_lateness_p99_ms", "late_p99_ms"))
               for values in ([s[key] for s in segments],)}
        ratios = [s["offered_qps"] / self.target_qps for s in segments]
        out["offered_rate_ratio"] = with_quartiles(
            statistics.median(ratios), ratios)
        out["slo_met_share"] = {
            "value": sum(s["within"] for s in segments) / sent}
        return out

    def notes(self, kept) -> dict:
        return {"p99_samples_per_segment": min(
            k["segment"]["samples"] for k in kept if "segment" in k)}

    def layer_metrics(self, tracer, outcomes, kept, quick) -> dict:
        queries = sum(o.issued for o in outcomes)
        frames = tracer.calls("network.protocol", "encode")
        decode_s, decoded = tracer.off_thread[("network.protocol", "decode")]
        out = super().layer_metrics(tracer, outcomes, kept, quick)
        out.update({
            "network.protocol.encode_us_per_frame":
                tracer.self_s("network.protocol", "encode") / frames * 1e6,
            # feed and parse_complete each fire once per COMPLETE frame.
            "network.protocol.decode_us_per_frame":
                decode_s / (decoded / 2) * 1e6,
            "network.bytes_per_query":
                sum(o.keep["bytes"] for o in outcomes) / queries,
            "network.wire_us_per_query":
                statistics.fmean(o.keep["wire_s"] for o in outcomes) * 1e6,
            "network.server_us_per_query":
                statistics.fmean(o.keep["server_s"] for o in outcomes) * 1e6,
        })
        for qps in (500, 2000):
            segment = self._open_loop(
                None, qps=float(qps),
                seconds=1.0 if quick else 3.0).keep["segment"]
            out[f"network.rate_{qps}.offered_qps"] = segment["offered_qps"]
            out[f"network.rate_{qps}.p50_ms"] = segment["p50_ms"]
            out[f"network.rate_{qps}.p99_ms"] = segment["p99_ms"]
        # The server's own counts, from the last client's DRAIN reply.
        stats = self.server_stats
        out["network.server.queue_high_water"] = stats["queue_high_water"]
        out["network.server.batch_mean"] = (
            stats["batched_samples"] / stats["batches"])
        out["network.client.retries_per_query"] = (
            sum(k["retries"] for k in kept) / sum(k["sent"] for k in kept))
        return out


WORKLOADS = {w.name: w for w in (
    ServerCore, StreamServer, SessionFleetChaos, PaperSweep, TcpServer)}
