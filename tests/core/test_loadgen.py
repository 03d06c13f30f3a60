"""End-to-end LoadGen runs against a deterministic SUT."""

import pytest

from repro.core import (
    Scenario,
    TestMode,
    TestSettings,
    run_benchmark,
)
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase

from tests.conftest import EchoQSL, FixedLatencySUT


class TestSingleStreamRuns:
    def test_valid_run(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=100, min_duration=0.5)
        result = run_benchmark(FixedLatencySUT(0.005), echo_qsl, settings)
        assert result.valid
        assert result.primary_metric == pytest.approx(0.005)
        assert result.metrics.query_count == 100

    def test_duration_dominates_when_longer(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=10, min_duration=1.0)
        result = run_benchmark(FixedLatencySUT(0.01), echo_qsl, settings)
        assert result.metrics.query_count == 100


class TestServerRuns:
    def test_valid_when_under_bound(self, echo_qsl, quick_server):
        result = run_benchmark(FixedLatencySUT(0.001), echo_qsl, quick_server)
        assert result.valid

    def test_invalid_when_over_bound(self, echo_qsl, quick_server):
        result = run_benchmark(FixedLatencySUT(0.2), echo_qsl, quick_server)
        assert not result.valid


class TestOfflineRuns:
    def test_throughput_metric(self, echo_qsl, quick_offline):
        class BatchSUT(SutBase):
            """Serial device: 1 ms per sample, one query at a time."""

            busy_until = 0.0

            def issue_query(self, query):
                responses = [QuerySampleResponse(s.id, None)
                             for s in query.samples]
                start = max(self.loop.now, self.busy_until)
                finish = start + 0.001 * query.sample_count
                self.busy_until = finish
                self.loop.schedule(
                    finish, lambda: self.complete(query, responses))

        result = run_benchmark(BatchSUT("batch"), echo_qsl, quick_offline)
        assert result.valid
        assert result.primary_metric == pytest.approx(1000.0, rel=0.05)


class TestMultiStreamRuns:
    def test_n_streams(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.MULTI_STREAM,
                                multistream_interval=0.05,
                                multistream_samples_per_query=8,
                                min_query_count=30, min_duration=1.0)
        result = run_benchmark(FixedLatencySUT(0.02), echo_qsl, settings)
        assert result.valid
        assert result.primary_metric == 8.0


class TestLoadedSet:
    def test_performance_run_loads_limited_set(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=50, min_duration=0.1,
                                performance_sample_count=16)
        result = run_benchmark(FixedLatencySUT(0.001), echo_qsl, settings)
        assert len(result.loaded_indices) == 16
        used = {i for r in result.log.records()
                for i in r.query.sample_indices}
        assert used <= set(result.loaded_indices)

    def test_loaded_set_deterministic_per_seed(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=10, min_duration=0.1,
                                performance_sample_count=8)
        a = run_benchmark(FixedLatencySUT(0.001), echo_qsl, settings)
        b = run_benchmark(FixedLatencySUT(0.001), echo_qsl, settings)
        assert a.loaded_indices == b.loaded_indices
        c = run_benchmark(FixedLatencySUT(0.001), echo_qsl,
                          settings.with_overrides(seed=1))
        assert c.loaded_indices != a.loaded_indices

    def test_samples_unloaded_after_run(self):
        qsl = EchoQSL()
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=10, min_duration=0.1)
        run_benchmark(FixedLatencySUT(0.001), qsl, settings)
        assert qsl.loaded == set()


class TestAccuracyMode:
    def test_covers_whole_dataset_and_keeps_responses(self):
        qsl = EchoQSL(total=300)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                mode=TestMode.ACCURACY)
        result = run_benchmark(FixedLatencySUT(0.001), qsl, settings)
        assert result.valid
        assert result.metrics.query_count == 300
        responses = result.log.logged_responses()
        assert len(responses) == 300
        index_map = result.log.sample_index_map()
        # Echo SUT returns each sample's index as the payload.
        assert all(index_map[sid] == data for sid, data in responses.items())


class TestMisbehavingSuts:
    def test_sut_that_never_completes_yields_invalid(self, echo_qsl):
        """A black-hole SUT must invalidate the run, not crash the harness."""
        class BlackHole(SutBase):
            def issue_query(self, query):
                pass

        settings = TestSettings(scenario=Scenario.OFFLINE,
                                offline_sample_count=10, min_duration=0.0)
        result = run_benchmark(BlackHole("hole"), echo_qsl, settings)
        assert not result.valid
        assert any("never completed" in r for r in result.validity.reasons)
        assert result.validity.details["first_stuck_issue_time"] == 0.0

    def test_sut_whose_callback_raises_yields_invalid_aborted(self, echo_qsl):
        """An exception inside a scheduled callback aborts the run with a
        structured INVALID verdict instead of escaping to the caller."""
        class Exploder(SutBase):
            def issue_query(self, query):
                def blow_up():
                    raise RuntimeError("backend segfault")
                self.loop.schedule_after(0.001, blow_up)

        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=5, min_duration=0.0)
        result = run_benchmark(Exploder("boom"), echo_qsl, settings)
        assert not result.valid
        aborted = [r for r in result.validity.reasons if "run aborted" in r]
        assert aborted and "backend segfault" in aborted[0]
        assert "blow_up" in aborted[0]  # the origin callback is named

    def test_empty_qsl_rejected(self):
        qsl = EchoQSL(total=0)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM)
        with pytest.raises(ValueError):
            run_benchmark(FixedLatencySUT(), qsl, settings)

    def test_performance_sample_count_beyond_library_rejected(self):
        qsl = EchoQSL(total=50)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=10, min_duration=0.1,
                                performance_sample_count=51)
        with pytest.raises(ValueError, match="exceeds"):
            run_benchmark(FixedLatencySUT(), qsl, settings)


class TestWatchdog:
    def test_healthy_run_unaffected_by_watchdog(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=20, min_duration=0.1,
                                watchdog_timeout=100.0)
        result = run_benchmark(FixedLatencySUT(0.002), echo_qsl, settings)
        assert result.valid
        assert not result.stats.watchdog_fired

    def test_watchdog_terminates_stuck_run(self, echo_qsl):
        class SlowerEveryQuery(SutBase):
            """Latency doubles per query: the run effectively wedges."""

            issued = 0

            def issue_query(self, query):
                self.issued += 1
                latency = 0.001 * (2 ** self.issued)
                responses = [QuerySampleResponse(s.id, None)
                             for s in query.samples]
                self.loop.schedule_after(
                    latency, lambda: self.complete(query, responses))

        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=1000, min_duration=0.0,
                                watchdog_timeout=2.0)
        result = run_benchmark(SlowerEveryQuery("slow"), echo_qsl, settings)
        assert not result.valid
        assert result.stats.watchdog_fired
        assert result.stats.watchdog_time == pytest.approx(2.0)
        assert any("watchdog fired" in r for r in result.validity.reasons)


class TestResultSummary:
    def test_summary_mentions_verdict_and_metric(self, echo_qsl):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=20, min_duration=0.1)
        result = run_benchmark(FixedLatencySUT(0.002), echo_qsl, settings)
        text = result.summary()
        assert "VALID" in text
        assert "single_stream" in text

    def test_invalid_summary_lists_reasons(self, echo_qsl, quick_server):
        result = run_benchmark(FixedLatencySUT(0.2), echo_qsl, quick_server)
        assert "INVALID" in result.summary()
        assert any(reason in result.summary()
                   for reason in result.validity.reasons)
