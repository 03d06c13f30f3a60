"""What a workload's child interpreter does: warm up, run the timed
passes, count calls, trace - and report one record to the parent.

Imported only by ``run.py --child``; the parent never pays for ``repro``
and numpy.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import statistics
from time import perf_counter

from repro.core.logging import QueryLog

import spans
import workloads

#: cProfile slows Python-heavy code about this much; used only to leave
#: room for the count pass inside a ``--seconds`` budget.
COUNT_SLOWDOWN = 4.0
#: Share of a ``--seconds`` budget the timed passes get in a traced run;
#: the traced pass, the count pass and the ladders take the rest.
TRACED_PASS_SHARE = 0.3


class SetupDone(BaseException):
    """Unwinds a set-up child at its first issued query.  Not an
    ``Exception``: the event loop wraps those into run aborts."""


def _announce_first_issue(stop: bool) -> None:
    """Print ``@first-issue`` when the first query is logged (the parent
    stamps the time), then get out of the way."""
    original = QueryLog.record_issue

    def record_issue(self, *args, **kwargs):
        QueryLog.record_issue = original
        print("@first-issue", flush=True)
        if stop:
            raise SetupDone()
        return original(self, *args, **kwargs)

    QueryLog.record_issue = record_issue


def child_main(args, started: float) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    _announce_first_issue(stop=args.child == "setup")
    workload.open()
    try:
        try:
            warm = workload.warmup()
        except SetupDone:
            return 0
        record = measure(workload, args, started, warm)
    finally:
        workload.close()
    print("@result " + json.dumps(record), flush=True)
    return 0


def calibration_ns(loops: int = 100_000, samples: int = 5) -> float:
    """Time of one iteration of an empty for-loop, in ns, best of a few
    ~1 ms samples: how fast this VM ran Python when the child started.
    For the output header only; no metric is divided by it."""
    best = float("inf")
    for _ in range(samples):
        start = perf_counter()
        for _ in range(loops):
            pass
        best = min(best, perf_counter() - start)
    return best / loops * 1e9


class PassLog:
    """What the timed passes over a unit list leave behind."""

    def __init__(self, units) -> None:
        self.units = units
        #: Per unit: host seconds of every pass.
        self.samples = [[] for _ in units]
        #: Per pass: host us/query.
        self.pass_us = []
        #: Unit digests of the first two passes.
        self.digests = []
        self.kept = []
        self.attempted = self.failed = 0
        self.queries_per_pass = None
        self.problems = []

    def best_s(self):
        """The estimator: each unit's best pass."""
        return [min(s) for s in self.samples]

    def run_pass(self) -> None:
        index = len(self.pass_us)
        host_s = issued = 0
        digests = []
        for i, unit in enumerate(self.units):
            outcome = unit.run(None)
            self.samples[i].append(outcome.host_s)
            self.attempted += outcome.issued
            self.failed += outcome.failed
            self.kept.append(outcome.keep)
            found = outcome.problems
            if index < 2:  # two digests witness determinism; more cost time
                digests.append(workloads.digest(outcome.witness()))
                found = found + outcome.deep_check()
            self.problems.extend(
                f"pass {index} {unit.name}: {p}" for p in found)
            if unit.feeds_host:
                host_s += outcome.host_s
                issued += outcome.issued
        if index < 2:
            self.digests.append(digests)
        if self.queries_per_pass is None:
            self.queries_per_pass = issued
        elif issued != self.queries_per_pass:
            self.problems.append(
                f"pass {index} issued {issued} queries, pass 0 issued "
                f"{self.queries_per_pass}")
        self.pass_us.append(host_s / issued * 1e6)
        if index == 1 and self.digests[0] != self.digests[1]:
            self.problems.append(
                "two passes of the same seed gave different digests")


def timed_passes(workload, args, started) -> PassLog:
    """Run the unit list pass after pass: the fixed pass count, or as
    many as fit ``--seconds`` with room left for the count pass."""
    log = PassLog(workload.units())
    if args.seconds is None:
        for _ in range(max(2, workload.passes // (10 if args.quick else 1))):
            log.run_pass()
        return log
    share = TRACED_PASS_SHARE if args.traced else 1.0
    deadline = started + args.seconds * share
    count_names = {u.name for u in workload.count_units()}
    while True:
        pass_started = perf_counter()
        log.run_pass()
        if len(log.pass_us) < (1 if args.traced else 2):
            continue
        pass_wall = perf_counter() - pass_started
        count_s = COUNT_SLOWDOWN * sum(
            min(s) for u, s in zip(log.units, log.samples)
            if u.name in count_names)
        if perf_counter() + pass_wall > deadline - count_s:
            return log


def count_pass(workload):
    """Python + C calls per query, and the calls per module."""
    profile = cProfile.Profile()
    if workload.virtual:
        workload.profiler, restore = profile, lambda: None
    else:
        restore = spans.profile_callbacks(profile)
    try:
        counted = sum(u.run(None).issued for u in workload.count_units())
    finally:
        workload.profiler = None
        restore()
    total_calls, by_module = spans.calls_by_module(profile)
    return total_calls / counted, by_module


def traced_pass(workload, args, log: PassLog, by_module: dict) -> dict:
    """One more pass under the tracer; returns the per-layer metrics and
    appends to ``log.problems`` if tracing changed the run."""
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        ran = [(u, u.run(tracer)) for u in workload.traced_units()]
    finally:
        restore()
    untraced = {u.name: (digest, best) for u, digest, best in zip(
        log.units, log.digests[0], log.best_s())}
    for unit, outcome in ran:
        log.problems.extend(
            f"traced {unit.name}: {p}" for p in outcome.problems)
        if workloads.digest(outcome.witness()) != untraced[unit.name][0]:
            log.problems.append(
                f"traced {unit.name}: digest differs from the untraced pass")
    log.problems.extend(
        f"traced spans: {p}" for p in spans.check_span_tree(
            [s for s in tracer.spans if s is not None])[:5])
    outcomes = [outcome for _, outcome in ran]
    traced_s = sum(o.host_s for o in outcomes)
    layers = workload.layer_metrics(tracer, outcomes, log.kept, args.quick)
    layers["trace.overhead_ratio"] = traced_s / sum(
        untraced[u.name][1] for u, _ in ran)
    layers["trace.unattributed_share"] = max(
        0.0, 1.0 - tracer.root_s / traced_s)
    tracer.dump(
        os.path.join(workloads.SCRATCH_DIR, f"{workload.name}.trace.json"),
        {"workload": workload.name, "seed": args.seed,
         "traced_queries": sum(o.issued for o in outcomes),
         "traced_host_s": traced_s},
        by_module)
    return layers


def measure(workload, args, started, warm) -> dict:
    calibration = calibration_ns()
    problems = [f"warm-up: {p}" for p in warm.problems + warm.deep_check()]
    echo = workload.echo_check
    if echo is not None and (echo.mismatches or not echo.checked):
        problems.append(
            f"warm-up: {echo.mismatches} of {echo.checked} echoed payloads "
            "differ from their sample index")

    log = timed_passes(workload, args, started)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls_per_query, by_module = count_pass(workload)
    layers = (traced_pass(workload, args, log, by_module)
              if args.traced else None)

    best_s = log.best_s()
    best_sum_s = sum(best for unit, best in zip(log.units, best_s)
                     if unit.feeds_host)
    host_us = best_sum_s / log.queries_per_pass * 1e6
    return {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(log.pass_us),
        "queries_per_pass": log.queries_per_pass,
        "units": [{"name": u.name, "best_s": best,
                   "median_s": statistics.median(s),
                   "feeds_host": u.feeds_host}
                  for u, s, best in zip(log.units, log.samples, best_s)],
        "calibration_ns": calibration,
        "host_us_per_query": workloads.with_quartiles(host_us, log.pass_us),
        "py_calls_per_query": calls_per_query,
        "calls_by_module": dict(list(by_module.items())[:12]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": log.attempted,
        "failed": log.failed,
        "digest": workloads.digest(log.digests[0]),
        "problems": problems + log.problems,
        "extras": workload.e2e_extras(best_sum_s, log.kept),
        "notes": workload.notes(log.kept),
        "layers": layers,
    }
