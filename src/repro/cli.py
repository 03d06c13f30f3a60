"""Command-line interface: ``python -m repro.cli <command>``.

Seven commands cover the everyday workflows:

* ``tables``  - print the paper's normative tables (I-V) from the code.
* ``run``     - measure one (task, scenario) on a parameterized
                simulated device, printing the LoadGen summary; with
                ``--sut network --addr HOST:PORT`` the same LoadGen
                instead drives a remote ``repro serve`` instance over
                TCP on the wall clock; with ``--sut parallel
                --workers N`` it runs the glyph classifier sharded
                across N worker processes (``repro.parallel``); with
                ``--workload session`` it replays seeded multi-turn
                conversations through a shared-prefix cache and audits
                the cache's hit trail (``docs/sessions.md``); add
                ``--replicas N --chaos`` to balance them over a zoned
                fleet while a seeded fault schedule knocks zones out
                and browns replicas down, with the outlier detector
                ejecting the gray failures (``docs/chaos.md``).
* ``serve``   - host a backend behind the network protocol so a
                ``run --sut network`` (or any NetworkSUT) can drive it;
                ``--backend parallel`` hosts the process-parallel pool
                instead of the in-thread echo.
* ``fleet``   - run the Section VI fleet survey (optionally a subset)
                and print the coverage matrix and per-model counts.
* ``check``   - run the submission checker over an on-disk submission
                directory (see ``repro.submission.artifacts``).
* ``metrics`` - run an instrumented network scenario on the virtual
                clock and render its live telemetry (counters, gauges,
                latency histograms with p50/p99) as a table, Prometheus
                exposition text, or JSON; see ``docs/observability.md``.
* ``sweep``   - search the Server arrival rate for the highest QPS that
                still meets the latency SLO, against a modeled SUT or a
                replicated fleet (optionally autoscaled, on the backlog
                or a live metric series); with ``--workload session`` the
                probed rate is *sessions/s* routed through per-replica
                prefix caches, each probe reporting its audited token hit
                rate; with ``--chaos`` every probe runs under the same
                seeded fault schedule, so the knee is the capacity the
                fleet holds *through* zone outages and gray failures.
                Writes a ``BENCH_fleet.json``-style capacity report with
                ``--report``; see ``docs/fleet.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import Scenario, Task

_TASKS = {task.value: task for task in Task}
_SCENARIOS = {
    "single-stream": Scenario.SINGLE_STREAM,
    "multi-stream": Scenario.MULTI_STREAM,
    "server": Scenario.SERVER,
    "offline": Scenario.OFFLINE,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLPerf Inference benchmark reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="print the paper's tables")
    tables.add_argument(
        "--which", choices=["1", "2", "3", "4", "5", "all"], default="all")

    run = sub.add_parser("run", help="benchmark a simulated device")
    run.add_argument("--task", choices=sorted(_TASKS))
    run.add_argument("--scenario", choices=sorted(_SCENARIOS))
    run.add_argument("--workload", choices=["queries", "session"],
                     default="queries",
                     help="queries: the paper's independent-query "
                          "scenarios (--scenario picks which); session: "
                          "multi-turn conversation replay through a "
                          "shared-prefix cache (docs/sessions.md)")
    run.add_argument("--sut", choices=["device", "network", "parallel"],
                     default="device",
                     help="device: in-process simulated device; "
                          "network: drive a remote 'repro serve' over TCP; "
                          "parallel: classifier on a worker-process pool")
    run.add_argument("--peak-gops", type=float, default=40_000.0)
    run.add_argument("--base-utilization", type=float, default=0.06)
    run.add_argument("--saturation-gops", type=float, default=150.0)
    run.add_argument("--overhead-ms", type=float, default=0.5)
    run.add_argument("--max-batch", type=int, default=64)
    run.add_argument("--engines", type=int, default=1)
    run.add_argument("--batch-window-ms", type=float, default=0.0)
    net = run.add_argument_group("network SUT (--sut network)")
    net.add_argument("--addr", metavar="HOST:PORT",
                     help="address of the remote inference server")
    net.add_argument("--target-qps", type=float, default=100.0,
                     help="server-scenario Poisson arrival rate")
    net.add_argument("--queries", type=int, default=200,
                     help="minimum query count for the measured run")
    net.add_argument("--latency-bound-ms", type=float, default=100.0)
    net.add_argument("--connections", type=int, default=1)
    net.add_argument("--query-timeout", type=float, default=2.0)
    net.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace (with network spans) here")
    par = run.add_argument_group("parallel SUT (--sut parallel)")
    par.add_argument("--workers", type=int, default=2,
                     help="worker processes in the pool")
    par.add_argument("--samples", type=int, default=256,
                     help="synthetic dataset size (and offline batch)")
    stream = run.add_argument_group("streaming (--stream)")
    stream.add_argument("--stream", action="store_true",
                        help="stream each answer as token chunks: the "
                             "summary gains TTFT/TPOT percentiles and "
                             "goodput (docs/streaming.md).  With --sut "
                             "device this is one direct measured run at "
                             "--target-qps rather than a tuning search; "
                             "with --sut network the remote server "
                             "should host a streaming backend ('repro "
                             "serve --backend streaming-echo')")
    stream.add_argument("--ttft-ms", type=float, default=None,
                        help="time-to-first-token SLO target")
    stream.add_argument("--tpot-ms", type=float, default=None,
                        help="time-per-output-token SLO target")
    stream.add_argument("--min-tokens", type=int, default=8)
    stream.add_argument("--max-tokens", type=int, default=32)
    stream.add_argument("--first-token-ms", type=float, default=2.0,
                        help="stream model delay to the first token")
    stream.add_argument("--inter-token-ms", type=float, default=0.5,
                        help="stream model delay between later tokens")
    stream.add_argument("--seed", type=int, default=0,
                        help="seeds the traffic and every seeded layer of "
                             "the stack; the tuned device search (--sut "
                             "device without --stream) takes its settings, "
                             "seed included, from harness.tuning")
    session = run.add_argument_group("session workload (--workload session)")
    session.add_argument("--sessions", type=int, default=64,
                         help="conversations to replay")
    session.add_argument("--session-qps", type=float, default=20.0,
                         help="Poisson session arrival rate, sessions/s")
    session.add_argument("--turns-min", type=int, default=2)
    session.add_argument("--turns-max", type=int, default=8)
    session.add_argument("--think-time-s", type=float, default=0.5,
                         help="mean exponential think time between turns")
    session.add_argument("--cache-tokens", type=int, default=32_768,
                         help="prefix-cache capacity, in tokens")
    session.add_argument("--backend-latency-ms", type=float, default=2.0,
                         help="echo backend per-turn service time")
    chaos = run.add_argument_group(
        "fleet + chaos (--workload session)")
    chaos.add_argument("--replicas", type=int, default=0,
                       help="> 0: replay the sessions against a ReplicaSet "
                            "of this many echo replicas (per-replica "
                            "prefix caches) instead of a single backend")
    chaos.add_argument("--zones", type=int, default=1,
                       help="fault domains to stripe the replicas across "
                            "(--replicas)")
    chaos.add_argument("--balancer",
                       choices=["round-robin", "least-outstanding",
                                "weighted-p99", "session-affinity",
                                "zone-spread", "zone-local"],
                       default="least-outstanding",
                       help="fleet balancing policy (--replicas)")
    chaos.add_argument("--chaos", action="store_true",
                       help="drive a seeded ChaosSchedule (zone outages, "
                            "gray failures, partitions) against the fleet "
                            "while it serves; requires --replicas "
                            "(docs/chaos.md)")
    chaos.add_argument("--chaos-events", type=int, default=3,
                       help="fault windows to draw for the schedule")
    chaos.add_argument("--no-detector", action="store_true",
                       help="with --chaos: leave the fleet unprotected "
                            "(skip the gray-failure outlier detector)")

    serve = sub.add_parser(
        "serve", help="host a backend behind the network protocol")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9090)
    serve.add_argument("--backend",
                       choices=["echo", "parallel", "streaming-echo"],
                       default="echo",
                       help="echo: per-worker-thread EchoSUT; parallel: "
                            "one shared process-parallel pool; "
                            "streaming-echo: echo that streams each "
                            "answer as token chunks (CHUNK frames)")
    serve.add_argument("--stream-seed", type=int, default=0,
                       help="stream model seed (--backend streaming-echo)")
    serve.add_argument("--latency-ms", type=float, default=1.0,
                       help="backend per-query service time")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--model-workers", type=int, default=2,
                       help="process count for --backend parallel")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--batch-window-ms", type=float, default=0.0)
    serve.add_argument("--queue", type=int, default=256,
                       help="admission-queue bound, in requests")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop after this long (default: until Ctrl-C)")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       help="graceful-drain budget on SIGTERM/Ctrl-C: new "
                            "queries are refused while in-flight ones get "
                            "this long to finish")
    serve.add_argument("--state-journal", metavar="PATH", default=None,
                       help="journal the final server state (stats, drain "
                            "outcome) to PATH on shutdown")

    fleet = sub.add_parser("fleet", help="run the Section VI fleet survey")
    fleet.add_argument("--systems", nargs="*", default=None,
                       help="subset of system names (default: all 33)")
    fleet.add_argument("--report", default=None, metavar="PATH",
                       help="also write a full markdown report to PATH")

    check = sub.add_parser("check", help="check a submission directory")
    check.add_argument("directory")

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented scenario and show its telemetry")
    metrics.add_argument("--scenario", choices=sorted(_SCENARIOS),
                         default="server")
    metrics.add_argument("--queries", type=int, default=500,
                         help="minimum query count for the run")
    metrics.add_argument("--target-qps", type=float, default=400.0,
                         help="server-scenario Poisson arrival rate")
    metrics.add_argument("--latency-ms", type=float, default=1.0,
                         help="echo backend per-query service time")
    metrics.add_argument("--net-latency-ms", type=float, default=0.5,
                         help="simulated one-way channel latency")
    metrics.add_argument("--jitter-ms", type=float, default=0.1,
                         help="mean exponential per-frame jitter")
    metrics.add_argument("--drop", type=float, default=0.0,
                         help="channel frame drop probability; > 0 adds "
                              "a retry layer and its resilient_* series")
    metrics.add_argument("--stream", action="store_true",
                         help="stream answers as token chunks so the "
                              "stream_* series (TTFT/TPOT histograms, "
                              "chunk counters) light up")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--snapshot-period-ms", type=float, default=100.0,
                         help="telemetry sampling period, run time")
    metrics.add_argument("--format", choices=["table", "prom", "json"],
                         default="table")
    metrics.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Chrome trace with a metrics "
                              "counter track here")
    metrics.add_argument("--journal", metavar="PATH", default=None,
                         help="write-ahead run journal: the run becomes "
                              "resumable and the durability_* series "
                              "light up (docs/durability.md)")
    metrics.add_argument("--resume", action="store_true",
                         help="resume the interrupted run recorded in "
                              "--journal instead of starting fresh")
    metrics.add_argument("--fsync", choices=["always", "interval", "never"],
                         default="never",
                         help="journal fsync policy (--journal)")
    metrics.add_argument("--breaker", action="store_true",
                         help="route the backend through the self-healing "
                              "path (circuit breaker, standby, hedged "
                              "retries); breaker_* series light up")
    metrics.add_argument("--outage", type=float, default=0.0,
                         metavar="SECONDS",
                         help="with --breaker: black out the primary "
                              "backend for this long so the breaker "
                              "demonstrably sheds load")
    metrics.add_argument("--outage-start", type=float, default=0.25,
                         metavar="SECONDS",
                         help="run time at which the --outage window opens")

    sweep = sub.add_parser(
        "sweep",
        help="find the max SLO-compliant Server/session arrival rate")
    sweep.add_argument("--workload", choices=["queries", "session"],
                       default="queries",
                       help="what the probed rate is: independent Server "
                            "queries/s, or multi-turn sessions/s routed "
                            "through per-replica prefix caches")
    sweep.add_argument("--qps-low", type=float, default=10.0,
                       help="lower edge of the searched rate bracket")
    sweep.add_argument("--qps-high", type=float, default=2000.0,
                       help="upper edge of the searched rate bracket")
    sweep.add_argument("--resolution", type=float, default=10.0,
                       help="terminal bracket width (binary) or step size")
    sweep.add_argument("--mode", choices=["binary", "step"],
                       default="binary")
    sweep.add_argument("--max-probes", type=int, default=32)
    sweep.add_argument("--latency-bound-ms", type=float, default=50.0,
                       help="the SLO each probe run is judged against "
                            "(per turn under --workload session)")
    sweep.add_argument("--queries", type=int, default=400,
                       help="minimum query count per probe run")
    sweep.add_argument("--latency-ms", type=float, default=2.0,
                       help="echo backend per-query service time")
    sweep.add_argument("--concurrency", type=int, default=None,
                       metavar="SLOTS",
                       help="serving slots per echo backend; makes its "
                            "capacity finite (SLOTS / latency qps) so the "
                            "sweep has a real knee to find")
    sweep.add_argument("--replicas", type=int, default=0,
                       help="> 0: probe a ReplicaSet of this many echo "
                            "replicas instead of a single backend")
    sweep.add_argument("--balancer", choices=["round-robin",
                                              "least-outstanding",
                                              "weighted-p99",
                                              "session-affinity",
                                              "zone-spread",
                                              "zone-local"],
                       default="least-outstanding",
                       help="fleet balancing policy (--replicas)")
    sweep.add_argument("--zones", type=int, default=1,
                       help="fault domains to stripe the replicas across "
                            "(--replicas)")
    sweep.add_argument("--chaos", action="store_true",
                       help="inject the same seeded ChaosSchedule into "
                            "every probe run, with the outlier detector "
                            "protecting the fleet: the reported capacity "
                            "is the SLO knee *under faults* "
                            "(docs/chaos.md)")
    sweep.add_argument("--chaos-events", type=int, default=3,
                       help="fault windows per probe run (--chaos)")
    sweep.add_argument("--autoscale", action="store_true",
                       help="attach the deterministic autoscaler to each "
                            "probe's fleet (--replicas)")
    sweep.add_argument("--scale-signal",
                       choices=["backlog", "outstanding-series",
                                "cache-miss-rate"],
                       default="backlog",
                       help="what the autoscaler samples: the in-process "
                            "backlog, the live fleet_outstanding_queries "
                            "series, or the fleet-wide "
                            "prefix_cache_tokens_missed_total rate")
    sweep.add_argument("--sessions", type=int, default=64,
                       help="conversations per probe run "
                            "(--workload session)")
    sweep.add_argument("--turns-min", type=int, default=2)
    sweep.add_argument("--turns-max", type=int, default=8)
    sweep.add_argument("--think-time-s", type=float, default=0.05,
                       help="mean think time between a session's turns")
    sweep.add_argument("--cache-tokens", type=int, default=32_768,
                       help="per-replica prefix cache capacity "
                            "(--workload session)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--report", metavar="PATH", default=None,
                       help="write the JSON capacity report here")
    return parser


def _cmd_tables(args) -> int:
    from .harness.tables import (
        format_table_i,
        format_table_ii,
        format_table_iii,
        format_table_iv,
        format_table_v,
    )

    sections = {
        "1": ("Table I - tasks and reference models", format_table_i),
        "2": ("Table II - scenarios and metrics", format_table_ii),
        "3": ("Table III - latency constraints", format_table_iii),
        "4": ("Table IV - query requirements", format_table_iv),
        "5": ("Table V - queries and samples per query", format_table_v),
    }
    keys = list(sections) if args.which == "all" else [args.which]
    for key in keys:
        title, formatter = sections[key]
        print(f"\n{title}\n{'=' * len(title)}")
        print(formatter())
    return 0


def _usage(message: str) -> int:
    """Report a flag combination the parser cannot rule out; exit code 2."""
    print(message, file=sys.stderr)
    return 2


def _stream_targets(args) -> dict:
    """``TestSettings`` overrides for the token-level SLO targets."""
    targets = {}
    if getattr(args, "ttft_ms", None) is not None:
        targets["ttft_target_ns"] = int(args.ttft_ms * 1e6)
    if getattr(args, "tpot_ms", None) is not None:
        targets["tpot_target_ns"] = int(args.tpot_ms * 1e6)
    return targets


# -- flags -> settings + StackSpec (shared by run and sweep) ----------------

def _session_settings(args, rate: float, **overrides):
    """The session workload's settings; ``rate`` is sessions/s."""
    from .core.config import TestSettings

    return TestSettings(
        scenario=Scenario.SESSION,
        server_target_qps=rate,
        session_count=args.sessions,
        session_turns_min=args.turns_min,
        session_turns_max=args.turns_max,
        session_think_time_mean=args.think_time_s,
        min_duration=0.0,
        seed=args.seed,
        **overrides,
    )


def _fleet_spec(args, horizon: float, **fleet_options):
    """``--replicas/--zones/--balancer/--chaos*`` as a ``FleetSpec``
    (``None`` without ``--replicas``).  ``horizon`` is a rough run
    length: all the chaos schedule needs, its windows are placed inside
    the first 60% of it."""
    from .faults import ChaosSchedule
    from .harness.stack import FleetSpec

    if args.replicas <= 0:
        return None
    chaos = None
    if args.chaos:
        chaos = ChaosSchedule.generate(
            args.seed, duration=horizon, replicas=args.replicas,
            zones=args.zones, events=args.chaos_events)
    return FleetSpec(replicas=args.replicas, zones=args.zones,
                     balancer=args.balancer, chaos=chaos, **fleet_options)


def _device_backend(args):
    """The ``--peak-gops ...`` device flags as a ``DeviceBackend``."""
    from .harness.stack import DeviceBackend
    from .sut.device import DeviceModel, ProcessorType
    from .sut.fleet import task_workload

    device = DeviceModel(
        name="cli-device", processor=ProcessorType.GPU,
        peak_gops=args.peak_gops, base_utilization=args.base_utilization,
        saturation_gops=args.saturation_gops,
        overhead=args.overhead_ms * 1e-3, max_batch=args.max_batch,
        engines=args.engines,
    )
    return DeviceBackend(device, task_workload(_TASKS[args.task]),
                         batch_window=args.batch_window_ms * 1e-3)


def _cmd_serve(args) -> int:
    import signal as _signal
    import time as _time

    from .network.server import InferenceServer, ServerConfig
    from .sut.echo import EchoSUT

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.queue,
        max_batch=args.max_batch,
        batch_window=args.batch_window_ms * 1e-3,
    )
    latency = args.latency_ms * 1e-3

    # Every exit - normal --max-seconds expiry, Ctrl-C, SIGTERM, or an
    # exception while starting up - funnels through this one drain path,
    # so a backend constructed before the server came up can never leak
    # its worker pool (see docs/durability.md, "Graceful drain").
    server = None
    backend = None
    done = []

    def _shutdown() -> None:
        if done:
            return
        done.append(True)
        if server is not None:
            drained = server.drain(timeout=args.drain_seconds)
            server.stop(drain=False)
            if not drained:
                print("drain deadline expired; in-flight queries dropped")
            if args.state_journal:
                from .durability.journal import JournalWriter

                with JournalWriter(args.state_journal) as writer:
                    writer.append("server-state", {
                        "drained": drained,
                        "stats": dict(server.stats.snapshot()),
                    })
                print(f"final state journaled to {args.state_journal}")
            print(f"server stats: {server.stats.snapshot()}")
        elif backend is not None:
            close = getattr(backend, "close", None)
            if callable(close):
                close()

    def _on_sigterm(signum, frame):
        # Funnel SIGTERM into the KeyboardInterrupt path so both signals
        # share the graceful drain; a second signal (handler restored in
        # the finally) force-kills as usual.
        raise KeyboardInterrupt

    previous = _signal.signal(_signal.SIGTERM, _on_sigterm)
    try:
        if args.backend == "parallel":
            from .harness.netbench import parallel_echo_backend

            # One shared pool instance: the server serializes dispatches
            # through a single runner, the processes provide the
            # parallelism, and the drain path releases the pool.
            backend = parallel_echo_backend(
                workers=args.model_workers, compute_time=latency)
            description = (f"parallel echo backend ({args.model_workers} "
                           f"procs, {args.latency_ms} ms)")
        elif args.backend == "streaming-echo":
            from .streaming import StreamModel, streaming_echo

            model = StreamModel(seed=args.stream_seed)
            backend = lambda: streaming_echo(  # noqa: E731
                latency=latency, model=model)
            description = (f"streaming echo backend ({args.latency_ms} ms, "
                           f"seed {args.stream_seed})")
        else:
            backend = lambda: EchoSUT(latency=latency)  # noqa: E731
            description = f"echo backend ({args.latency_ms} ms)"
        server = InferenceServer(backend, config)
        host, port = server.start()
        print(f"serving {description} on {host}:{port}")
        if args.max_seconds is not None:
            _time.sleep(args.max_seconds)
        else:
            while True:
                _time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down: draining in-flight queries")
    finally:
        _signal.signal(_signal.SIGTERM, previous)
        _shutdown()
    return 0


def _cmd_run_parallel(args) -> int:
    import numpy as np

    from .core.config import TestSettings
    from .core.loadgen import run_benchmark
    from .datasets import SyntheticImageNet
    from .datasets.qsl import DatasetQSL
    from .models.runtime import build_glyph_classifier
    from .parallel import ParallelSUT

    scenario = _SCENARIOS[args.scenario]
    if scenario not in (Scenario.OFFLINE, Scenario.SINGLE_STREAM):
        return _usage("--sut parallel supports offline and single-stream")
    dataset = SyntheticImageNet(size=args.samples, num_classes=8, seed=29)
    model = build_glyph_classifier(dataset, "light")

    def classifier_factory():
        def predict(samples):
            return model.predict(np.stack(samples))
        return predict

    if scenario is Scenario.OFFLINE:
        settings = TestSettings(
            scenario=scenario, offline_sample_count=args.samples,
            min_duration=0.0, min_query_count=1, seed=args.seed)
    else:
        settings = TestSettings(
            scenario=scenario, min_duration=0.0,
            min_query_count=args.queries, seed=args.seed)
    qsl = DatasetQSL(dataset)
    sut = ParallelSUT(
        classifier_factory, qsl, workers=args.workers, seed=args.seed)
    try:
        result = run_benchmark(sut, qsl, settings)
    finally:
        sut.close()
    print(result.summary())
    stats = sut.pool.stats
    print(f"pool: {args.workers} workers, "
          f"{stats.shm_dispatches} shm + {stats.pickle_dispatches} pickled "
          f"shard jobs, {stats.bytes_in / 1e6:.2f} MB in / "
          f"{stats.bytes_out / 1e6:.2f} MB out, {stats.restarts} restarts")
    return 0 if result.valid else 1


def _cmd_run_tuned(args) -> int:
    """``run --task T --scenario S``: search the device's capacity with
    the paper's tuning procedure (``harness.tuning``)."""
    from .harness.netbench import SyntheticQSL
    from .harness.stack import StackSpec, build
    from .harness.tuning import (
        QUICK_SCALE,
        find_max_multistream_n,
        find_max_server_qps,
        measure_offline,
        measure_single_stream,
    )

    task = _TASKS[args.task]
    scenario = _SCENARIOS[args.scenario]
    spec = StackSpec(backend=_device_backend(args))
    qsl = SyntheticQSL(name="cli")

    def make_sut():
        return build(spec, args.seed).sut

    if scenario is Scenario.SINGLE_STREAM:
        result = measure_single_stream(make_sut, qsl, task, QUICK_SCALE)
        print(result.summary())
    elif scenario is Scenario.OFFLINE:
        result = measure_offline(make_sut, qsl, task, QUICK_SCALE)
        print(result.summary())
    elif scenario is Scenario.SERVER:
        tuned = find_max_server_qps(make_sut, qsl, task, QUICK_SCALE)
        if tuned is None:
            print("result: cannot meet the server QoS bound at any rate")
            return 1
        print(f"max server rate: {tuned.value:.1f} qps "
              f"({tuned.probes} probe runs)")
        print(tuned.result.summary())
    else:
        tuned = find_max_multistream_n(make_sut, qsl, task, QUICK_SCALE)
        if tuned is None:
            print("result: cannot sustain even one stream")
            return 1
        print(f"max streams: {int(tuned.value)}")
        print(tuned.result.summary())
    return 0


def _stream_run_settings(args):
    """``run --stream`` on the device: one direct measured run at the
    given load instead of a tuning search."""
    from .core.config import TestSettings

    scenario = _SCENARIOS[args.scenario]
    if scenario is Scenario.SERVER:
        load = dict(server_target_qps=args.target_qps,
                    server_latency_bound=args.latency_bound_ms * 1e-3,
                    min_query_count=args.queries)
    elif scenario is Scenario.OFFLINE:
        load = dict(offline_sample_count=args.samples, min_query_count=1)
    else:
        load = dict(min_query_count=args.queries)
    return TestSettings(
        scenario=scenario, task=_TASKS[args.task],
        min_duration=0.0, watchdog_timeout=300.0, seed=args.seed,
        **load, **_stream_targets(args))


def _report_session(args, settings, stack, result) -> int:
    """What a session run prints after the summary: fleet counters, the
    audited cache hit rate, the chaos windows and the detector trail."""
    from collections import Counter

    from .sessions import replay_graph_from_settings

    stats, problems, events = stack.cache_audit(
        replay_graph_from_settings(settings))
    orchestrator, detector = stack.orchestrator, stack.detector
    if args.replicas > 0:
        print(f"fleet             : {stack.sut.stats.summary()}")
    print(f"prefix cache      : {stats.hits} hits / "
          f"{stats.partial_hits} partial / {stats.misses} misses "
          f"({stats.evictions} evictions), "
          f"hit rate {stats.hit_rate:.1%}, "
          f"token hit rate {stats.token_hit_rate:.1%}")
    if orchestrator is not None:
        did = Counter(d.action for d in orchestrator.trace)
        print(f"chaos             : {did['inject']} faults injected, "
              f"{did['recover']} recovered over {len(orchestrator.trace)} "
              f"ticks")
        for window in orchestrator.windows:
            closed = (f"{window.end:.3f}" if window.end is not None
                      else "open")
            print(f"  {window.kind:12s} {window.target:10s} "
                  f"[{window.start:.3f} .. {closed}] s")
    if detector is not None:
        did = Counter(e.action for e in detector.trace)
        print(f"outlier detector  : {did['eject']} ejections, "
              f"{did['readmit']} readmissions "
              f"({len(detector.trace)} trail events)")
    if args.trace:
        from .core.trace import write_chrome_trace

        write_chrome_trace(
            result.log, args.trace, snapshots=result.snapshots,
            chaos=orchestrator.windows if orchestrator else None)
        print(f"trace written to {args.trace}")
    if problems:
        print(f"cache audit       : FAILED ({len(problems)} discrepancies; "
              f"first: {problems[0]})")
        return 1
    print(f"cache audit       : clean ({events} events replayed)")
    return 0 if result.valid else 1


def _report_network(args, stack, result) -> int:
    """What a network run prints after the summary: both ends of the wire."""
    from .harness.netbench import NetworkRunResult

    client = stack.channel
    print(f"client: {client.stats.summary()}")
    if client.server_stats:
        print(f"server: {client.server_stats}")
    bundle = NetworkRunResult(result=result,
                              transport=client.transport_records)
    print(f"mean round trip : {bundle.mean_round_trip() * 1e3:.3f} ms")
    print(f"mean wire share : {bundle.mean_network_time() * 1e3:.3f} ms")
    if args.trace:
        from .core.trace import write_chrome_trace

        write_chrome_trace(result.log, args.trace,
                           transport=client.transport_records)
        print(f"trace written to {args.trace}")
    return 0 if result.valid else 1


def _cmd_run(args) -> int:
    """Flags -> settings + ``StackSpec`` -> ``build`` -> ``Stack.run``
    -> report, for the session workload, the network client and the
    streamed device run.  The worker-pool SUT owns its own library and
    the plain device run is a search, so those two are functions of
    their own."""
    session = args.workload == "session"
    network = not session and args.sut == "network"
    if session:
        if args.sut != "device":
            return _usage("--workload session supports --sut device only")
        if args.chaos and args.replicas <= 0:
            return _usage("--chaos requires --replicas N")
    elif args.scenario is None:
        return _usage("run requires --scenario (unless --workload session)")
    elif network:
        if not args.addr:
            return _usage("--sut network requires --addr HOST:PORT")
    elif args.sut == "parallel":
        if args.stream:
            return _usage("--stream supports --sut device and --sut network")
        return _cmd_run_parallel(args)
    elif args.task is None:
        return _usage("--stream with --sut device requires --task"
                      if args.stream else "--sut device requires --task")
    elif not args.stream:
        return _cmd_run_tuned(args)

    from .core.config import TestSettings
    from .harness.netbench import SyntheticQSL
    from .harness.stack import EchoBackend, NetworkBackend, StackSpec, build
    from .metrics import MetricsRegistry
    from .streaming import StreamModel

    registry = None
    if session:
        settings = _session_settings(
            args, args.session_qps,
            task=_TASKS[args.task] if args.task else None,
            watchdog_timeout=600.0, **_stream_targets(args))
        horizon = (args.sessions / args.session_qps
                   + args.turns_max * args.think_time_s)
        spec = StackSpec(
            backend=EchoBackend(args.backend_latency_ms * 1e-3),
            stream=StreamModel() if args.stream else None,
            cache_tokens=args.cache_tokens,
            fleet=_fleet_spec(
                args, horizon, max_replicas=args.replicas,
                detector=args.chaos and not args.no_detector))
        registry = MetricsRegistry()
    elif network:
        # --stream sets only the token targets: the server streams.
        settings = TestSettings(
            scenario=_SCENARIOS[args.scenario],
            task=_TASKS[args.task] if args.task else None,
            server_target_qps=args.target_qps,
            server_latency_bound=args.latency_bound_ms * 1e-3,
            min_query_count=args.queries, min_duration=0.0,
            watchdog_timeout=60.0, seed=args.seed, **_stream_targets(args))
        spec = StackSpec(backend=NetworkBackend(
            args.addr, args.connections, args.query_timeout))
    else:
        settings = _stream_run_settings(args)
        spec = StackSpec(
            backend=_device_backend(args),
            stream=StreamModel(
                first_token_delay=args.first_token_ms * 1e-3,
                inter_token_delay=args.inter_token_ms * 1e-3,
                min_tokens=args.min_tokens, max_tokens=args.max_tokens))
    stack = build(spec, args.seed, registry)
    try:
        result = stack.run(SyntheticQSL(), settings, registry=registry)
    finally:
        stack.close()
    print(result.summary())
    if session:
        return _report_session(args, settings, stack, result)
    if network:
        return _report_network(args, stack, result)
    return 0 if result.valid else 1


def _cmd_fleet(args) -> int:
    from .harness.experiments import (
        result_matrix,
        results_per_task,
        run_fleet,
    )
    from .harness.tables import format_coverage_matrix
    from .sut.fleet import build_fleet

    systems = build_fleet()
    if args.systems:
        wanted = set(args.systems)
        known = {s.name for s in systems}
        unknown = wanted - known
        if unknown:
            print(f"unknown systems: {sorted(unknown)}", file=sys.stderr)
            print(f"available: {sorted(known)}", file=sys.stderr)
            return 2
        systems = [s for s in systems if s.name in wanted]

    records = run_fleet(systems)
    print(f"{len(records)} results from {len(systems)} systems\n")
    print(format_coverage_matrix(result_matrix(records)))
    print("\nper model:")
    for task, count in results_per_task(records).items():
        print(f"  {task.value:20s} {count}")
    if args.report:
        from pathlib import Path

        from .harness.report import generate_report

        Path(args.report).write_text(generate_report(
            records, systems=systems, title="MLPerf Inference fleet sweep"))
        print(f"\nreport written to {args.report}")
    return 0


def _cmd_metrics(args) -> int:
    from .core.config import TestSettings
    from .core.trace import write_chrome_trace
    from .faults.resilient import RetryPolicy
    from .harness.netbench import SyntheticQSL
    from .harness.stack import EchoBackend, StackSpec, build
    from .metrics import (
        MetricsRegistry,
        render_table,
        to_json,
        to_prometheus_text,
    )
    from .network.simulated import ChannelModel
    from .streaming import StreamModel

    settings = TestSettings(
        scenario=_SCENARIOS[args.scenario],
        server_target_qps=args.target_qps,
        server_latency_bound=0.1,
        min_query_count=args.queries,
        min_duration=0.0,
        watchdog_timeout=300.0,
        seed=args.seed,
    )
    echo = EchoBackend(args.latency_ms * 1e-3)
    spec = StackSpec(
        backend=echo,
        stream=StreamModel() if args.stream else None,
        channel=ChannelModel(
            latency=args.net_latency_ms * 1e-3,
            jitter=args.jitter_ms * 1e-3,
            drop_rate=args.drop),
        outage=(args.outage_start, args.outage) if args.outage > 0 else None,
        # A lossy channel needs the retry layer, which also lights up
        # the resilient_* counters in the registry.
        retry=RetryPolicy(attempt_timeout=0.200) if args.drop > 0 else None,
        # The standby is a plain local echo: during a primary outage
        # the breaker trips, queries reroute, and the run survives.
        standby=echo if args.breaker else None,
    )
    registry = MetricsRegistry()
    stack = build(spec, args.seed, registry)
    if args.outage > 0 and not args.breaker:
        print("note: --outage without --breaker leaves nothing to shed "
              "the load; expect recorded failures", file=sys.stderr)

    if args.resume:
        if not args.journal:
            return _usage("--resume requires --journal PATH")
        from .durability import resume_run

        result = resume_run(
            args.journal, stack.sut, SyntheticQSL(),
            registry=registry,
            snapshot_period=args.snapshot_period_ms * 1e-3,
            fsync=args.fsync,
        )
    else:
        journal = None
        if args.journal:
            from .durability import RunJournal

            journal = RunJournal(args.journal, fsync=args.fsync,
                                 registry=registry)
        result = stack.run(
            SyntheticQSL(), settings,
            registry=registry,
            snapshot_period=args.snapshot_period_ms * 1e-3,
            journal=journal,
        )

    if args.format == "prom":
        print(to_prometheus_text(registry), end="")
    elif args.format == "json":
        print(to_json(registry))
    else:
        print(result.summary())
        print()
        print(render_table(registry))
        count = len(result.snapshots or [])
        print(f"\n{count} snapshots over {result.metrics.duration:.3f} s "
              f"of virtual time")
    if args.trace:
        write_chrome_trace(result.log, args.trace,
                           transport=stack.channel.transport_records,
                           snapshots=result.snapshots)
        print(f"trace written to {args.trace}")
    return 0 if result.valid else 1


def _cmd_sweep(args) -> int:
    import json
    from pathlib import Path

    from .core.config import TestSettings
    from .fleet import SweepConfig, SweepHarness, SweepProbe
    from .harness.netbench import SyntheticQSL
    from .harness.stack import EchoBackend, StackSpec, build
    from .metrics import MetricsRegistry
    from .sessions import replay_graph_from_settings

    session_workload = args.workload == "session"
    if args.scale_signal == "cache-miss-rate" and not session_workload:
        return _usage("--scale-signal cache-miss-rate requires --workload "
                      "session (no prefix caches otherwise)")
    if args.replicas <= 0 and (args.autoscale or args.chaos):
        flag = "--autoscale" if args.autoscale else "--chaos"
        return _usage(f"{flag} requires --replicas N")
    bound = args.latency_bound_ms * 1e-3
    if session_workload:
        # The probed rate is the *session* arrival rate (sessions/s);
        # the latency bound applies per turn (docs/sessions.md).
        settings = _session_settings(
            args, args.qps_low,  # overridden per probe
            server_latency_bound=bound, watchdog_timeout=300.0)
        horizon = (args.sessions / args.qps_high
                   + args.turns_max * args.think_time_s)
    else:
        settings = TestSettings(
            scenario=Scenario.SERVER,
            server_target_qps=args.qps_low,  # overridden per probe
            server_latency_bound=bound,
            min_query_count=args.queries,
            min_duration=0.0,
            watchdog_timeout=300.0,
            seed=args.seed,
        )
        horizon = args.queries / args.qps_high
    # The schedule is sized to the *shortest* probe (the qps-high end of
    # the bracket) so every probe run sees both the injection and the
    # recovery side of each window.  One schedule, reused by every
    # probe: the capacity verdicts stay comparable across rates.
    fleet = _fleet_spec(
        args, horizon, max_replicas=2 * args.replicas,
        attempt_timeout=4.0 * bound, detector=args.chaos,
        autoscale=args.scale_signal if args.autoscale else None)
    spec = StackSpec(
        backend=EchoBackend(args.latency_ms * 1e-3, args.concurrency),
        cache_tokens=args.cache_tokens if session_workload else None,
        fleet=fleet)
    if fleet is not None:
        probed = (f"{args.replicas}-replica echo fleet "
                  f"({args.balancer}"
                  f"{f', {args.zones} zones' if args.zones > 1 else ''}"
                  f"{f', autoscaled on {args.scale_signal}' if args.autoscale else ''}"
                  f"{f', chaos x{args.chaos_events}' if args.chaos else ''})")
    else:
        probed = "single echo backend"
    if session_workload:
        probed += " [session workload, per-replica prefix caches]"

    qsl = SyntheticQSL()
    graph = replay_graph_from_settings(settings) if session_workload else None
    cache_rows = []

    def probe_at(qps):
        # One registry per fleet probe: live series feed the autoscaler's
        # SeriesSignal and export per-replica prefix_cache_* families.
        stack = build(
            spec, args.seed, MetricsRegistry() if fleet is not None else None)
        try:
            result = stack.run(
                qsl, settings.with_overrides(server_target_qps=qps))
            if session_workload:
                stats, problems, _ = stack.cache_audit(graph)
                cache_rows.append((stats, len(problems)))
            return SweepProbe.judged(qps, result)
        finally:
            stack.close()

    result = SweepHarness(
        None, None, settings,
        SweepConfig(qps_low=args.qps_low, qps_high=args.qps_high,
                    resolution=args.resolution, mode=args.mode,
                    max_probes=args.max_probes),
        probe=probe_at,
    ).run()
    unit = "sessions/s" if session_workload else "qps"
    print(f"probed: {probed} ({args.latency_ms} ms service time)")
    for position, probe in enumerate(result.probes):
        verdict = "VALID" if probe.valid else "INVALID"
        line = (f"  {probe.qps:10.3f} {unit}  {verdict:7s} "
                f"p99={probe.latency_p99 * 1e3:8.3f} ms  "
                f"completed={probe.completed}")
        if session_workload:
            stats, dirty = cache_rows[position]
            audit = "clean" if dirty == 0 else f"{dirty} PROBLEMS"
            line += (f"  token-hit={stats.token_hit_rate:6.1%} "
                     f"audit={audit}")
        print(line)
    print(result.summary())
    dirty_trails = sum(dirty for _, dirty in cache_rows)
    if dirty_trails:
        print(f"prefix-cache audit FAILED: {dirty_trails} discrepancies "
              "across probe runs", file=sys.stderr)
    if args.report:
        report = result.report()
        report["workload"] = args.workload
        if args.chaos:
            report["chaos"] = {
                "zones": args.zones,
                "events": [event._asdict() for event in fleet.chaos.events],
            }
        if session_workload:
            report["probe_cache"] = [
                {
                    "token_hit_rate": stats.token_hit_rate,
                    "hits": stats.hits,
                    "partial_hits": stats.partial_hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "audit_problems": dirty,
                }
                for stats, dirty in cache_rows
            ]
        path = Path(args.report)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"capacity report written to {path}")
    if dirty_trails:
        return 1
    return 0 if result.max_qps is not None else 1


def _cmd_check(args) -> int:
    from .submission.artifacts import check_submission_dir

    report = check_submission_dir(args.directory)
    for issue in report.issues:
        print(issue)
    if report.passed:
        print("submission CLEARED")
        return 0
    print(f"submission REJECTED ({len(report.errors)} errors)")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "check": _cmd_check,
        "metrics": _cmd_metrics,
        "sweep": _cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
