"""What the query log holds: columns for the resolved, objects only for
the tail.

A finished 20,000-query Server run over ``EchoSUT`` retains at most
120 bytes per query (``tracemalloc``, result held, stack built and a
warm-up run made before the count starts); a log that kept every
resolved query as a
``QueryRecord`` with its ``Query``, samples and boxed numbers retained
~484.  A streamed run (2-6 tokens a query) retains at most 110 and a
MultiStream run of 4 samples a query at most 120.  While a run goes, a
``RunService`` probe sees the samples of the unretired tail stay within
``SWEEP_BLOCK`` plus the samples in flight: the log sweeps every
``SWEEP_BLOCK`` resolved samples, so a MultiStream run of 32 samples a
query holds ~1,024 samples as objects, not ~1,024 queries of 32.
"""

import gc
import tracemalloc

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core import loadgen
from repro.core.logging import SWEEP_BLOCK, QueryLog
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL


def server_settings(queries):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=1000.0,
        server_latency_bound=0.01, min_query_count=queries,
        min_duration=0.0, seed=1)


def multistream_settings(queries, width=4):
    return TestSettings(
        scenario=Scenario.MULTI_STREAM, multistream_samples_per_query=width,
        multistream_interval=0.005, min_query_count=queries,
        min_duration=0.0, seed=1)


#: Per run: the SUT, the settings for a query count, and the bytes a
#: finished run may retain per query.
RUNS = {
    "plain": (lambda: EchoSUT(latency=0.5e-3), server_settings, 120),
    "streamed": (lambda: StreamingSUT(EchoSUT(latency=0.5e-3), StreamModel(
        min_tokens=2, max_tokens=6, seed=1)), server_settings, 110),
    "multistream": (lambda: EchoSUT(latency=2e-3), multistream_settings, 120),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_retains_its_records_as_columns(name):
    make_sut, settings_for, bound = RUNS[name]
    queries = 20_000
    sut, qsl, settings = make_sut(), EchoQSL(), settings_for(queries)
    run_benchmark(sut, qsl, settings_for(10))  # loads what a run imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_benchmark(sut, qsl, settings)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.valid and result.log.query_count == queries
    per_query = retained / queries
    print(f"\nretained {retained} B: {per_query:.1f} B/query")
    assert per_query <= bound


def _samples(records):
    return sum(len(record.query.samples) for record in records)


class TailProbe:
    """A RunService that samples, every virtual 0.2 ms, how many samples
    the records the run's log holds as objects carry, and how many of
    them are in flight."""

    def __init__(self, logs):
        self.logs = logs
        self.samples = []

    def start(self, loop, keep_going):
        def tick():
            log = self.logs[-1]
            self.samples.append((_samples(log._records.values()),
                                 _samples(log.outstanding_records())))
            if keep_going():
                loop.schedule_after(0.0002, tick)

        loop.schedule_after(0.0002, tick)

    def stop(self):
        pass


#: Per run: the settings.
TAILS = {
    "server": server_settings(4 * SWEEP_BLOCK + 100),
    "wide-multistream": multistream_settings(SWEEP_BLOCK + 100, width=32),
}


@pytest.mark.parametrize("name", sorted(TAILS))
def test_the_unretired_tail_stays_within_a_block_of_the_samples_in_flight(
        monkeypatch, name):
    settings = TAILS[name]
    logs = []

    class Watched(QueryLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            logs.append(self)

    monkeypatch.setattr(loadgen, "QueryLog", Watched)
    probe = TailProbe(logs)
    result = run_benchmark(EchoSUT(latency=2e-3), EchoQSL(), settings,
                           services=[probe])
    assert result.valid
    queries = settings.min_query_count
    assert len(probe.samples) > 5 * queries
    assert max(tail for tail, _ in probe.samples) > SWEEP_BLOCK // 2
    for tail, in_flight in probe.samples:
        assert tail <= SWEEP_BLOCK + in_flight
    assert len(result.log._records) == 0  # judged: everything retired
    assert len(result.log.records()) == result.log.query_count


class DropOne(EchoSUT):
    """Echoes every query but one, which it never answers."""

    def __init__(self, dropped):
        super().__init__(latency=1e-3)
        self.dropped = dropped

    def issue_query(self, query):
        if query.id != self.dropped:
            super().issue_query(query)


@pytest.mark.parametrize("dropped", [1, 2, SWEEP_BLOCK + 7])
def test_a_stuck_query_holds_back_only_what_was_issued_after_it(dropped):
    settings = server_settings(3 * SWEEP_BLOCK).with_overrides(
        watchdog_timeout=4.0)
    log = run_benchmark(DropOne(dropped), EchoQSL(), settings).log
    assert log.outstanding == 1
    assert len(log._ids) == dropped - 1
    assert len(log._records) == log.query_count - (dropped - 1)
    assert log.outstanding_records()[0].query.id == dropped
