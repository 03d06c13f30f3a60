"""The benchmark's catalogue: workloads, metric names, units,
directions, bounds.  The one place they are written down:

    python3 benchmarks/perf/catalogue.py > BENCHMARK.json

``run.py`` prints from these tables and ``compare.py`` gates from them.

A ``bound`` is how far a metric may worsen before the change counts as
a regression: a share of the baseline value, or an absolute step when
``absolute`` is set (shares that sit at 0 or 1 have no meaningful
relative bound).  ``None`` means information only.

``BENCHMARK.json`` has one metric list for all five workloads, so it
carries only what every workload measures.  ``driver`` marks its
end-to-end metrics: never zero, a relative bound, and a run-to-run
spread on the sandbox VM that stays inside that bound (host time does
not; README.md has the runs).  Its ``per_layer`` list is
``host_us_per_query`` and the per-layer metrics whose ``workloads`` is
``ALL``.  Metrics of some workloads only (``tcp_server``'s latencies,
one stack's layers, the ladders) are printed by ``run.py``, recorded by
``--json`` and, where bounded, gated by ``compare.py``.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple, Optional, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: What the harness passes as ``--seconds``.  A run also starts
#: ``run.SETUP_SAMPLES - 1`` set-up children outside that budget.
RUN_SECONDS = 20

#: name -> one line of *why* the workload exists.
WHY = {
    "server_core": "plain Server run on the virtual clock: core (events, "
                   "sampler, driver, log, metrics) does ~all the work, so "
                   "hot-path changes must show here first",
    "stream_server": "same run streamed as ~20 chunks/query: streaming and "
                     "the chunk path dominate (8x the calls); a chunk-path "
                     "change moves this and leaves server_core flat",
    "session_fleet_chaos": "sessions through a zoned 4-replica fleet with "
                           "caches, chaos, outlier detector and registry: "
                           "sessions/fleet/faults/metrics dominate, issue "
                           "is completion-driven",
    "paper_sweep": "39 planned submissions of six simulated systems (the "
                   "paper's sec. VI corpus): only user of sut.simulated, "
                   "harness.tuning and the Offline/MultiStream/"
                   "SingleStream drivers; bulk draws",
    "tcp_server": "wall clock over loopback TCP to a child server: network "
                  "does the work, core.events runs realtime, closed loop "
                  "then open loop at 1,000 qps",
}
ALL = tuple(WHY)
VIRTUAL = ALL[:4]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    bound: Optional[float]      # None: information only, never gated
    workloads: Tuple[str, ...]  # where the metric is measured
    definition: str
    absolute: bool = False
    driver: bool = False


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, ALL,
           "interpreter start to first query issued (imports, stack "
           "build, QSL load, tcp: server spawn + connect); best of 9 "
           "fresh children, four before the passes and four after",
           driver=True),
    Metric("host_us_per_query", "us", "lower", None, ALL,
           "host time of run_benchmark (with compute_metrics and "
           "validate_run) per issued query: sum over units of each "
           "unit's best pass; paper_sweep times run_submission, "
           "tcp_server its closed-loop phase A.  Information: no bound "
           "up to 25% holds it on this VM"),
    Metric("sweep_host_s", "s", "lower", None, ("paper_sweep",),
           "sum over the 39 submissions of each one's best pass "
           "(information, like host_us_per_query)"),
    Metric("py_calls_per_query", "count", "lower", 0.03, ALL,
           "Python + C function calls per query under a cProfile count "
           "pass (no time is taken from it); a count, never a speed-up",
           driver=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, ALL,
           "ru_maxrss of the workload's child after its timed passes",
           driver=True),
    Metric("failed_share", "ratio", "lower", 0.001, ALL,
           "queries failed, refused or never resolved / queries issued, "
           "over all passes", absolute=True),
    Metric("latency_p50_ms", "ms", "lower", 0.10, ("tcp_server",),
           "open loop: completion - scheduled time, median; best segment"),
    Metric("latency_p99_ms", "ms", "lower", 0.15, ("tcp_server",),
           "open loop: completion - scheduled time, p99 (>=10 samples "
           "beyond it per 2 s segment); best segment"),
    Metric("issue_lateness_p99_ms", "ms", "lower", 0.15, ("tcp_server",),
           "open loop: issue - scheduled time, p99; best segment"),
    Metric("offered_rate_ratio", "ratio", "higher", 0.05, ("tcp_server",),
           "open loop: (queries issued - 1) / (last - first issue time) "
           "/ target qps; median segment; 1.0 is ideal"),
    Metric("slo_met_share", "ratio", "higher", 0.01, ("tcp_server",),
           "open loop: queries completing within 5 ms of their scheduled "
           "time / queries sent", absolute=True),
)


def _layer(name, unit, better, workloads, definition):
    return Metric(name, unit, better, None, workloads, definition)


_STREAM = ("stream_server",)
_SFC = ("session_fleet_chaos",)
_TCP = ("tcp_server",)
_LADDER = ("server_core",)

PER_LAYER = (
    _layer("core.events.scheduled_per_query", "count", "lower", ALL,
           "EventLoop.schedule calls per query (exact)"),
    _layer("core.events.self_us_per_query", "us", "lower", ALL,
           "self time of EventLoop.run + schedule per query (realtime "
           "loops: includes sleeping)"),
    _layer("core.events.bare_us_per_event", "us", "lower", ("server_core",),
           "bare loop: 20,000 no-op callbacks, best of 5"),
    _layer("core.sampler.draw_us_per_query", "us", "lower", ALL,
           "self time of SampleSelector.draw per query"),
    _layer("core.sampler.draw_calls_per_query", "count", "lower", ALL,
           "SampleSelector.draw calls per query (exact)"),
    _layer("core.scenarios.issue_us_per_query", "us", "lower",
           ("server_core", "stream_server", "paper_sweep"),
           "self time of the driver's timer callbacks (arrive, tick, "
           "issue) per query; the session and SingleStream drivers issue "
           "from completions"),
    _layer("core.scenarios.completion_us_per_query", "us", "lower", ALL,
           "self time of ScenarioDriver.handle_completion per query, "
           "chunks included"),
    _layer("core.query.self_us_per_query", "us", "lower", ALL,
           "self time of QueryFactory.make_query per query"),
    _layer("core.logging.record_us_per_query", "us", "lower", ALL,
           "self time of QueryLog.record_issue + observe_completion + "
           "record_failure per query"),
    _layer("core.logging.chunk_us_per_chunk", "us", "lower", _STREAM,
           "self time of QueryLog.record_chunk per chunk"),
    _layer("core.metrics.finalize_us_per_query", "us", "lower", ALL,
           "self time of compute_metrics + validate_run per query"),
    _layer("streaming.plan_us_per_query", "us", "lower", _STREAM,
           "self time of StreamModel.plan per query"),
    _layer("streaming.self_us_per_query", "us", "lower", _STREAM,
           "self time of StreamingSUT (issue, completion, chunk events) "
           "per query, plan excluded"),
    _layer("streaming.chunks_per_query", "count", "lower", _STREAM,
           "chunks logged (QueryLog.record_chunk calls) per query (exact)"),
    _layer("streaming.events_per_query", "count", "lower", _STREAM,
           "events StreamingSUT schedules per query (exact)"),
    _layer("sessions.cache.self_us_per_turn", "us", "lower", _SFC,
           "self time of the per-replica PrefixCacheSUTs per turn"),
    _layer("sessions.cache.token_hit_rate", "ratio", "higher", _SFC,
           "prefix tokens reused / (reused + missed), all replicas"),
    _layer("sessions.cache.evictions", "count", "lower", _SFC,
           "LRU evictions, all replicas (exact)"),
    _layer("sessions.driver.self_us_per_turn", "us", "lower", _SFC,
           "self time of SessionDriver callbacks and on_completion per "
           "turn"),
    _layer("sessions.replay.plan_us_per_session", "us", "lower", _SFC,
           "self time of ReplayGraph.plan per session"),
    _layer("fleet.replicaset.self_us_per_query", "us", "lower", _SFC,
           "self time of ReplicaSet (issue, completion, deadlines) per "
           "turn"),
    _layer("fleet.balancer.rank_us_per_query", "us", "lower", _SFC,
           "self time of the balancing policy's rank_for per turn"),
    _layer("fleet.affinity_hit_share", "ratio", "higher", _SFC,
           "turns after a session's first whose cache access found the "
           "prefix resident (hit or partial) / such turns"),
    _layer("fleet.reroutes_per_query", "ratio", "lower", _SFC,
           "reroutes / turns (exact)"),
    _layer("fleet.rescued_queries", "count", "lower", _SFC,
           "in-flight turns rescued by kills and ejections (exact)"),
    _layer("fleet.ejections", "count", "lower", _SFC,
           "outlier ejections (exact)"),
    _layer("fleet.outlier.tick_us", "us", "lower", _SFC,
           "self time of OutlierDetector.evaluate per tick"),
    _layer("faults.chaos.tick_us", "us", "lower", _SFC,
           "self time of the ChaosOrchestrator tick, per tick"),
    _layer("faults.degraded.self_us_per_query", "us", "lower", _SFC,
           "self time of the DegradedSUT valves per turn"),
    _layer("metrics.registry.added_us_per_query", "us", "lower", _SFC,
           "ladder: host us/turn with the MetricsRegistry and its 50 ms "
           "snapshot sampler minus without, best of 3 each, interleaved"),
    _layer("metrics.snapshot.us_per_sample", "us", "lower", _SFC,
           "self time of the snapshot sampler's tick, per snapshot"),
    _layer("network.client.issue_us_per_query", "us", "lower", _TCP,
           "self time of NetworkSUT.issue_query per query, encode "
           "excluded"),
    _layer("network.protocol.encode_us_per_frame", "us", "lower", _TCP,
           "self time of protocol.issue_frame per frame"),
    _layer("network.protocol.decode_us_per_frame", "us", "lower", _TCP,
           "reader-thread time in FrameReader.feed + parse_complete per "
           "COMPLETE frame"),
    _layer("network.bytes_per_query", "count", "lower", _TCP,
           "bytes sent + received per query, phase A"),
    _layer("network.wire_us_per_query", "us", "lower", _TCP,
           "TransportTiming.network_time, mean, phase A"),
    _layer("network.server_us_per_query", "us", "lower", _TCP,
           "TransportTiming.server_time, mean, phase A"),
    _layer("network.server.queue_high_water", "count", "lower", _TCP,
           "server admission-queue high-water mark over the run"),
    _layer("network.server.batch_mean", "count", "higher", _TCP,
           "samples per dispatched server batch over the run"),
    _layer("network.client.retries_per_query", "ratio", "lower", _TCP,
           "client retries / queries sent, all passes"),
    _layer("network.rate_500.offered_qps", "1/s", "higher", _TCP,
           "fixed-rate ladder: offered rate at a 500 qps target, 3 s"),
    _layer("network.rate_500.p50_ms", "ms", "lower", _TCP,
           "fixed-rate ladder: latency from scheduled time, median"),
    _layer("network.rate_500.p99_ms", "ms", "lower", _TCP,
           "fixed-rate ladder: latency from scheduled time, p99"),
    _layer("network.rate_2000.offered_qps", "1/s", "higher", _TCP,
           "fixed-rate ladder: offered rate at a 2,000 qps target, 3 s"),
    _layer("network.rate_2000.p50_ms", "ms", "lower", _TCP,
           "fixed-rate ladder: latency from scheduled time, median"),
    _layer("network.rate_2000.p99_ms", "ms", "lower", _TCP,
           "fixed-rate ladder: latency from scheduled time, p99"),
    _layer("sut.simulated.self_us_per_query", "us", "lower",
           ("paper_sweep",), "self time of SimulatedSUT per query"),
    _layer("harness.tuning.probes_per_search", "count", "lower",
           ("paper_sweep",), "run_benchmark calls per capacity search "
           "(Server and MultiStream units; exact)"),
    _layer("harness.tuning.queries_per_sweep", "count", "lower",
           ("paper_sweep",), "queries issued over the 39 submissions "
           "(exact)"),
    _layer("durability.journal.added_us_per_query", "us", "lower", _LADDER,
           "ladder: RunJournal attached, over the bare rung"),
    _layer("durability.journal.bytes_per_query", "count", "lower", _LADDER,
           "journal bytes written per query"),
    _layer("faults.resilient.added_us_per_query", "us", "lower", _LADDER,
           "ladder: ResilientSUT(echo), over the bare rung"),
    _layer("durability.healing.added_us_per_query", "us", "lower", _LADDER,
           "ladder: SelfHealingSUT(echo), over the bare rung"),
    _layer("network.simulated.added_us_per_query", "us", "lower", _LADDER,
           "ladder: SimulatedChannelSUT(echo), over the bare rung"),
    _layer("parallel.added_us_per_sample", "us", "lower", _LADDER,
           "ladder: 2-worker ParallelSUT echo, over the bare rung"),
    _layer("parallel.shm_dispatch_share", "ratio", "higher", _LADDER,
           "shared-memory dispatches / all dispatches"),
    _layer("trace.overhead_ratio", "ratio", "lower", ALL,
           "traced / untraced host_us_per_query"),
    _layer("trace.unattributed_share", "ratio", "lower", ALL,
           "traced host time not covered by any layer span"),
)

CATALOGUE = {m.name: m for m in END_TO_END + PER_LAYER}

#: Names in ``BENCHMARK.json``: what the last output line carries with
#: ``--trace 0`` and with ``--trace 1``.
DRIVER_END_TO_END = tuple(m.name for m in END_TO_END if m.driver)
DRIVER_PER_LAYER = ("host_us_per_query",) + tuple(
    m.name for m in PER_LAYER if m.workloads == ALL)


def benchmark_json() -> dict:
    def entry(name, bounded):
        metric = CATALOGUE[name]
        out = {"name": name, "unit": metric.unit, "better": metric.better}
        if bounded:
            out["bound"] = metric.bound
        return out

    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WHY.items()],
        "end_to_end": [entry(n, True) for n in DRIVER_END_TO_END],
        "per_layer": [entry(n, False) for n in DRIVER_PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=1))
