"""Extension: cost and fidelity of the live telemetry subsystem.

The acceptance bar for ``repro.metrics`` is that observing the
benchmark must not perturb it: instrumenting the LoadGen issue path has
to cost **under 1 us per query**.  The bar used to be a share (< 5%) of
the bare per-query processing time, and moved every time that path got
cheaper - the same ~0.6 us read 3.4% of a ~17 us path and 8% of a ~7 us
one - so it is stated on the thing it bounds.  Measuring it as a
difference of two full-run wall times is hopeless on a shared machine -
the difference of two ~30 ms numbers with percent-level scheduler noise
swamps a sub-microsecond effect - so the budget is checked the robust
way:

* **what instrumentation adds per query** (the one histogram
  observation the scenario driver still performs - its counters are
  views of the query log and cost the event nothing) is timed in
  isolation, where it is deterministic to nanoseconds, and asserted as
  it is;
* the **bare per-query issue-path cost** comes from a min-of-N
  uninstrumented run and is printed beside it as a share, for the
  reader;
* a full instrumented run still executes end to end, interleaved with
  bare runs, as a coarse guardrail against wiring regressions the
  microbenchmark cannot see.

The same structure bounds the snapshot sampler (captures per run x
cost per capture), and the subsystem's fidelity claim is pinned: live
histogram percentiles must agree with the exact post-hoc
``ScenarioMetrics`` within the documented reconstruction bound.
"""

import time

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.harness.netbench import SyntheticQSL
from repro.metrics import Histogram, MetricsRegistry, capture
from repro.metrics.primitives import DEFAULT_GROWTH
from repro.sut.echo import EchoSUT

#: Queries per timed run: large enough that per-query processing
#: dominates fixed setup.
QUERIES = 4000
REPEATS = 5
#: Seconds per query the driver's metric operation may cost (one
#: latency observation; measured ~0.3 us).
INSTRUMENTATION_BUDGET = 1e-6
#: Share of a run the snapshot sampler may cost.
OVERHEAD_BUDGET = 0.05
#: Seconds per query a full instrumented + sampled run may add over a
#: bare one (the end-to-end guardrail; measured 0.7-1.1 us).
END_TO_END_BUDGET = 2e-6
SNAPSHOT_PERIOD = 0.010


def settings():
    return TestSettings(
        scenario=Scenario.SERVER,
        server_target_qps=20_000.0,
        server_latency_bound=0.1,
        min_query_count=QUERIES,
        min_duration=0.0,
        watchdog_timeout=600.0,
    )


def timed_run(registry=None, snapshot_period=None):
    started = time.perf_counter()
    result = run_benchmark(
        EchoSUT(latency=0.001), SyntheticQSL(), settings(),
        registry=registry, snapshot_period=snapshot_period,
    )
    elapsed = time.perf_counter() - started
    assert result.valid
    return elapsed, result


@pytest.fixture(scope="module")
def bare_per_query():
    """Bare issue-path cost per query, min-of-N (seconds)."""
    timed_run()  # warm-up
    best = min(timed_run()[0] for _ in range(REPEATS))
    per_query = best / QUERIES
    print(f"\nbare: {best * 1e3:.1f} ms = {per_query * 1e6:.2f} us/query")
    return per_query


def instrumented_ops_per_query():
    """Time exactly what ``_DriverInstruments`` adds per query.

    Issue side: nothing - the issued/samples counters read the query
    log when collected.  Completion side: one latency observation (the
    completed counter is a view too).  The ``is not None`` guard the
    driver takes is included.
    """
    registry = MetricsRegistry()
    latency = registry.histogram("l_seconds", labels=("s",)).labels(s="x")
    metrics = latency  # any non-None sentinel for the guard
    n = 50_000
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for i in range(n):
            if metrics is not None:
                latency.observe(0.001 + i * 1e-9)
        best = min(best, time.perf_counter() - started)
    return best / n


class TestIssuePathOverhead:
    def test_instrumentation_cost_under_budget(self, bare_per_query):
        added = instrumented_ops_per_query()
        print(f"instrumentation: {added * 1e9:.0f} ns/query "
              f"= {added / bare_per_query:.2%} of the issue path")
        assert added < INSTRUMENTATION_BUDGET, (
            f"instrumentation costs {added * 1e9:.0f} ns/query "
            f"(budget {INSTRUMENTATION_BUDGET * 1e9:.0f} ns)"
        )

    def test_snapshot_sampling_cost_under_budget(self, bare_per_query):
        registry = MetricsRegistry()
        _, result = timed_run(registry, SNAPSHOT_PERIOD)
        snaps = result.snapshots
        assert snaps is not None and len(snaps) >= 10
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(100):
                capture(registry, 0.0)
            best = min(best, (time.perf_counter() - started) / 100)
        total_cost = best * len(snaps)
        run_time = bare_per_query * QUERIES
        overhead = total_cost / run_time
        print(f"\ncapture: {best * 1e6:.0f} us x {len(snaps)} snapshots "
              f"= {overhead:.2%} of the run")
        assert overhead < OVERHEAD_BUDGET

    def test_end_to_end_guardrail(self):
        """Coarse full-system check: what an instrumented + sampled run
        adds per query, (min-of-N instrumented - min-of-N bare) /
        queries, stays under ``END_TO_END_BUDGET`` (the precise budgets
        are asserted microbenchmark-side above).  Bare and instrumented
        runs alternate, so a machine that slows down between them slows
        both.

        Stated in us/query, like the issue-path budget, and for the same
        reason: it used to be a share (< 15%) of a ~7 us/query bare run,
        which a cheaper bare path turns red with the instrumentation
        unchanged - it read +9-16%, i.e. 0.7-1.1 us/query.  The bound
        is twice that: the one latency observation (~0.3 us) plus the
        sampler's captures spread over the run, with room for scheduler
        noise, while an accidental O(n) on the hot path still costs more.
        """
        timed_run()  # warm-up
        bare = best = float("inf")
        for _ in range(REPEATS):
            bare = min(bare, timed_run()[0])
            best = min(
                best, timed_run(MetricsRegistry(), SNAPSHOT_PERIOD)[0])
        added = (best - bare) / QUERIES
        print(f"\nend-to-end instrumented+sampled: {added * 1e6:+.2f} "
              f"us/query ({best / bare - 1.0:+.2%})")
        assert added < END_TO_END_BUDGET, (
            f"instrumented+sampled adds {added * 1e6:.2f} us/query "
            f"(budget {END_TO_END_BUDGET * 1e6:.0f} us)")


class TestPrimitiveCost:
    def test_histogram_observe_is_sub_microsecond_scale(self):
        """A guardrail, not a race: one observe() must cost O(1) and
        stay far below any per-query latency we simulate (10 us here,
        an order above typical measured cost)."""
        h = Histogram()
        n = 200_000
        values = [0.001 + 1e-9 * i for i in range(n)]
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for v in values:
                h.observe(v)
            best = min(best, time.perf_counter() - started)
        per_observe = best / n
        print(f"\nobserve: {per_observe * 1e9:.0f} ns")
        assert per_observe < 10e-6


class TestLiveFidelity:
    def test_live_percentiles_track_post_hoc_metrics(self):
        registry = MetricsRegistry()
        _, result = timed_run(registry)
        hist = registry.get("loadgen_query_latency_seconds").labels(
            scenario="server")
        assert hist.count == result.metrics.query_count
        bound = DEFAULT_GROWTH - 1.0
        assert hist.percentile(0.90) == pytest.approx(
            result.metrics.latency_p90, rel=bound)
        assert hist.percentile(0.99) == pytest.approx(
            result.metrics.latency_p99, rel=bound)
        assert hist.mean == pytest.approx(result.metrics.latency_mean,
                                          rel=1e-9)
