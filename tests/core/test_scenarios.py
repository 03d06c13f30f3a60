"""Scenario drivers: traffic generation semantics (Table II, Fig. 4)."""

import numpy as np
import pytest

from repro.core.config import Scenario, TestMode, TestSettings
from repro.core.events import EventLoop
from repro.core.logging import QueryLog
from repro.core.query import QuerySampleResponse
from repro.core.scenarios import (
    AccuracySource,
    PerformanceSource,
    make_driver,
)
from repro.core.sampler import SampleSelector
from repro.core.sut import SutBase


class ScriptedSUT(SutBase):
    """Fixed latency; records issue times for timing assertions."""

    def __init__(self, latency=0.01):
        super().__init__("scripted")
        self.latency = latency
        self.issue_times = []

    def issue_query(self, query):
        self.issue_times.append(self.loop.now)
        responses = [QuerySampleResponse(s.id, None) for s in query.samples]
        self.loop.schedule_after(
            self.latency, lambda: self.complete(query, responses)
        )


def run_driver(settings, sut, source=None):
    loop = EventLoop()
    log = QueryLog()
    if source is None:
        source = PerformanceSource(SampleSelector(range(64), seed=1))
    driver = make_driver(loop, settings, sut, source, log)
    sut.start_run(loop, driver.handle_completion)
    driver.start()
    loop.run()
    return log, driver


class TestSources:
    def test_performance_source_is_infinite(self):
        source = PerformanceSource(SampleSelector([1, 2], seed=0))
        assert not source.finite
        assert len(source.next(5)) == 5

    def test_accuracy_source_walks_once(self):
        source = AccuracySource([1, 2, 3])
        assert source.finite
        assert source.next(2) == [1, 2]
        assert source.remaining == 1
        assert source.next(2) == [3]
        assert source.next(2) is None


class TestSingleStream:
    def test_sequential_issue_on_completion(self):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=10, min_duration=0.0)
        sut = ScriptedSUT(latency=0.01)
        log, _ = run_driver(settings, sut)
        gaps = np.diff(sut.issue_times)
        assert np.allclose(gaps, 0.01)

    def test_stops_at_both_minimums(self):
        # 0.5 s at 10 ms per query -> 50 queries > the 10-query minimum.
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=10, min_duration=0.5)
        sut = ScriptedSUT(latency=0.01)
        log, _ = run_driver(settings, sut)
        assert log.query_count == 50

    def test_one_sample_per_query(self):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=5, min_duration=0.0)
        log, _ = run_driver(settings, ScriptedSUT())
        assert all(r.query.sample_count == 1 for r in log.records())


class TestServer:
    def test_poisson_interarrivals(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                server_target_qps=1000.0,
                                server_latency_bound=1.0,
                                min_query_count=2000, min_duration=0.0)
        sut = ScriptedSUT(latency=0.0001)
        log, _ = run_driver(settings, sut)
        gaps = np.diff(sut.issue_times)
        # Exponential(1/1000): mean 1 ms, CV ~= 1.
        assert np.mean(gaps) == pytest.approx(1e-3, rel=0.15)
        assert np.std(gaps) / np.mean(gaps) == pytest.approx(1.0, rel=0.2)

    def test_arrivals_independent_of_completions(self):
        # A slow SUT must not slow the arrival process down.
        settings = TestSettings(scenario=Scenario.SERVER,
                                server_target_qps=100.0,
                                server_latency_bound=10.0,
                                min_query_count=200, min_duration=0.0)
        sut = ScriptedSUT(latency=1.0)
        log, _ = run_driver(settings, sut)
        duration = max(t for t in sut.issue_times) - sut.issue_times[0]
        assert duration == pytest.approx(200 / 100.0, rel=0.3)

    def test_traffic_is_seed_deterministic(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                server_target_qps=100.0,
                                server_latency_bound=1.0,
                                min_query_count=100, min_duration=0.0,
                                seed=11)
        sut_a = ScriptedSUT()
        run_driver(settings, sut_a)
        sut_b = ScriptedSUT()
        run_driver(settings, sut_b)
        assert sut_a.issue_times == sut_b.issue_times

    def test_different_seed_different_traffic(self):
        base = TestSettings(scenario=Scenario.SERVER,
                            server_target_qps=100.0,
                            server_latency_bound=1.0,
                            min_query_count=100, min_duration=0.0)
        sut_a = ScriptedSUT()
        run_driver(base, sut_a)
        sut_b = ScriptedSUT()
        run_driver(base.with_overrides(seed=999), sut_b)
        assert sut_a.issue_times != sut_b.issue_times


class TestMultiStream:
    def test_fixed_arrival_interval(self):
        settings = TestSettings(scenario=Scenario.MULTI_STREAM,
                                multistream_interval=0.05,
                                multistream_samples_per_query=4,
                                min_query_count=20, min_duration=0.0)
        sut = ScriptedSUT(latency=0.01)   # always finishes within interval
        log, driver = run_driver(settings, sut)
        gaps = np.diff(sut.issue_times)
        assert np.allclose(gaps, 0.05)
        assert driver.stats.total_skipped_ticks == 0

    def test_n_samples_per_query(self):
        settings = TestSettings(scenario=Scenario.MULTI_STREAM,
                                multistream_interval=0.05,
                                multistream_samples_per_query=7,
                                min_query_count=5, min_duration=0.0)
        log, _ = run_driver(settings, ScriptedSUT(latency=0.01))
        assert all(r.query.sample_count == 7 for r in log.records())

    def test_slow_queries_skip_intervals(self):
        # 70 ms latency vs 50 ms interval: every query overruns by one
        # interval, so every query produces exactly one skipped tick.
        settings = TestSettings(scenario=Scenario.MULTI_STREAM,
                                multistream_interval=0.05,
                                multistream_samples_per_query=1,
                                min_query_count=10, min_duration=0.0)
        sut = ScriptedSUT(latency=0.07)
        log, driver = run_driver(settings, sut)
        offenders = [q for q, n in driver.stats.skipped_intervals.items()
                     if n > 0]
        # Every query except the last (no tick follows it) is charged.
        assert len(offenders) == log.query_count - 1
        # Delayed by one interval each: issues 100 ms apart.
        gaps = np.diff(sut.issue_times)
        assert np.allclose(gaps, 0.10)

    def test_occasional_slow_query_charged_correctly(self):
        class MostlyFast(ScriptedSUT):
            def issue_query(self, query):
                self.latency = 0.07 if len(self.issue_times) == 3 else 0.01
                super().issue_query(query)

        settings = TestSettings(scenario=Scenario.MULTI_STREAM,
                                multistream_interval=0.05,
                                multistream_samples_per_query=1,
                                min_query_count=10, min_duration=0.0)
        sut = MostlyFast()
        log, driver = run_driver(settings, sut)
        assert driver.stats.total_skipped_ticks == 1
        slow_query_id = log.records()[3].query.id
        assert driver.stats.skipped_intervals == {slow_query_id: 1}


class TestOffline:
    def test_single_query_carries_all_samples(self):
        settings = TestSettings(scenario=Scenario.OFFLINE,
                                offline_sample_count=500, min_duration=0.0)
        log, driver = run_driver(settings, ScriptedSUT(latency=1.0))
        # Double buffering issues two batches up front; duration is
        # satisfied after the first completes.
        assert driver.stats.offline_queries == 2
        assert log.records()[0].query.sample_count == 500

    def test_issued_at_time_zero(self):
        settings = TestSettings(scenario=Scenario.OFFLINE,
                                offline_sample_count=100, min_duration=0.0)
        sut = ScriptedSUT(latency=0.5)
        run_driver(settings, sut)
        assert sut.issue_times[0] == 0.0

    def test_extra_batches_until_min_duration(self):
        settings = TestSettings(scenario=Scenario.OFFLINE,
                                offline_sample_count=10, min_duration=1.0)
        sut = ScriptedSUT(latency=0.1)
        log, driver = run_driver(settings, sut)
        duration = max(r.completion_time for r in log.completed_records())
        assert duration >= 1.0
        assert driver.stats.offline_queries >= 10


class TestAccuracyModeDrivers:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_each_scenario_covers_dataset_exactly_once(self, scenario):
        settings = TestSettings(scenario=scenario, mode=TestMode.ACCURACY,
                                multistream_interval=0.05,
                                server_latency_bound=1.0,
                                multistream_samples_per_query=4,
                                min_duration=0.0)
        source = AccuracySource(range(30))
        log, _ = run_driver(settings, ScriptedSUT(latency=0.001), source)
        seen = [idx for r in log.records() for idx in r.query.sample_indices]
        assert sorted(seen) == list(range(30))


class TestArrivalStreamIsolation:
    """Pins the ServerDriver arrival-RNG contract (ISSUE 4 satellite):
    the stream is a pure function of the seed, rebuilt per driver, and
    disjoint from every other seeded stream in the harness -- so
    back-to-back runs in one process (retuning probes, multitenant)
    reproduce, and the Section V-B alternate-seed audit stays sound."""

    SETTINGS = dict(scenario=Scenario.SERVER, server_target_qps=200.0,
                    server_latency_bound=1.0, min_query_count=64,
                    min_duration=0.0, seed=77)

    def _arrivals(self, **overrides):
        settings = TestSettings(**{**self.SETTINGS, **overrides})
        sut = ScriptedSUT(latency=0.0001)
        run_driver(settings, sut)
        return sut.issue_times

    def test_back_to_back_runs_replay_identical_arrivals(self):
        first = self._arrivals()
        second = self._arrivals()
        third = self._arrivals()
        assert first == second == third

    def test_interleaved_construction_does_not_perturb_streams(self):
        """Two drivers built before either runs (the multitenant shape)
        must see exactly the streams they would have seen solo."""
        solo = self._arrivals()
        loop = EventLoop()
        settings = TestSettings(**self.SETTINGS)
        suts, drivers = [], []
        for _ in range(2):
            sut = ScriptedSUT(latency=0.0001)
            source = PerformanceSource(SampleSelector(range(64), seed=1))
            driver = make_driver(loop, settings, sut, source, QueryLog())
            sut.start_run(loop, driver.handle_completion)
            suts.append(sut)
            drivers.append(driver)
        for driver in drivers:
            driver.start()
        loop.run()
        assert suts[0].issue_times == solo
        assert suts[1].issue_times == solo

    def test_alternate_seed_diverges_same_seed_restores(self):
        """The V-B audit in one process: official seed, alternate seed,
        official again -- the third run must equal the first."""
        official = self._arrivals()
        alternate = self._arrivals(seed=1234)
        replay = self._arrivals()
        assert official != alternate
        assert official == replay

    def test_arrival_stream_disjoint_from_sibling_streams(self):
        """The arrival child (spawn key (0,)) must not collide with the
        loaded-set child (spawn key (1,)) or the sample-selection
        stream (root entropy): identical draws would correlate traffic
        with data selection and quietly defeat the seed audits."""
        seed = self.SETTINGS["seed"]
        root = np.random.SeedSequence(seed)
        arrival = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(1)[0])
        loaded_set = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(2)[1])
        selector = np.random.default_rng(seed)
        draws = {
            name: tuple(rng.random(8))
            for name, rng in [("arrival", arrival),
                              ("loaded_set", loaded_set),
                              ("selector", selector)]
        }
        assert len(set(draws.values())) == 3, draws
        del root

    def test_selector_consumption_does_not_advance_arrivals(self):
        """Drawing samples between runs must not shift the arrival
        schedule: the streams share no state."""
        first = self._arrivals()
        SampleSelector(range(64), seed=self.SETTINGS["seed"]).draw(500)
        second = self._arrivals()
        assert first == second


class TestScheduledTimesAreTheArrivalStream:
    """Pins *which* numbers the arrival stream yields, not only that it
    is isolated: arrival ``i`` is scheduled at the running sum of the
    first ``i`` gaps, each one ``exponential(1 / rate)`` from the spawn
    child (0,) of the run seed, with the rate evaluated at the previous
    arrival.  However a driver obtains its gaps, this is the sequence;
    the runs are long enough to cross any block a driver might pre-draw.
    """

    QPS = 500.0
    SEED = 41

    def _reference(self, count, bursts=()):
        rng = np.random.default_rng(
            np.random.SeedSequence(self.SEED).spawn(1)[0])
        now, expected = 0.0, []
        for _ in range(count):
            rate = self.QPS
            for start, duration, multiplier in bursts:
                if start <= now < start + duration:
                    rate *= multiplier
            now = now + rng.exponential(1.0 / rate)
            expected.append(now)
        return expected

    def _server_schedule(self, queries, **overrides):
        settings = TestSettings(
            scenario=Scenario.SERVER, server_target_qps=self.QPS,
            server_latency_bound=1.0, min_query_count=queries,
            min_duration=0.0, seed=self.SEED, **overrides)
        log, _ = run_driver(settings, ScriptedSUT(latency=0.0001))
        assert log.query_count == queries
        return [r.scheduled_time for r in log.records()]

    def test_server_schedule_is_the_running_sum_of_the_gaps(self):
        scheduled = self._server_schedule(5000)
        assert scheduled == self._reference(5000)
        assert all(type(t) is float for t in scheduled)

    def test_server_rate_bursts_rescale_the_same_gaps(self):
        # Windows on both sides of the first thousand arrivals, one of
        # them a lull, so the rate changes mid-run more than once.
        bursts = ((0.5, 0.75, 4.0), (2.0, 1.5, 0.25), (6.0, 1.0, 8.0))
        scheduled = self._server_schedule(5000, server_rate_bursts=bursts)
        assert scheduled == self._reference(5000, bursts)
        assert scheduled != self._reference(5000)

    def test_session_arrivals_are_the_same_running_sum(self):
        sessions = 1500
        settings = TestSettings(
            scenario=Scenario.SESSION, server_target_qps=self.QPS,
            session_count=sessions, session_turns_min=1,
            session_turns_max=2, session_think_time_mean=0.001,
            min_duration=0.0, seed=self.SEED)
        log, driver = run_driver(settings, ScriptedSUT(latency=0.0001))
        assert driver.stats.sessions_completed == sessions
        # Only a session's first turn is an arrival; later turns follow
        # the previous answer and carry no scheduled time.
        arrivals = [r.scheduled_time for r in log.records()
                    if r.query.session.turn_index == 0]
        assert arrivals == self._reference(sessions)
        assert all(r.scheduled_time is None for r in log.records()
                   if r.query.session.turn_index != 0)
