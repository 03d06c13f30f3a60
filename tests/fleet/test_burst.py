"""Arrival-rate bursts: ``TestSettings.server_rate_bursts`` and the
Server driver."""

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.durability import run_fingerprint

from tests.conftest import EchoQSL, FixedLatencySUT


def burst_settings(bursts=None, queries=800, qps=100.0, seed=0):
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=0.5, min_query_count=queries,
        min_duration=0.0, watchdog_timeout=120.0, seed=seed,
        server_rate_bursts=bursts,
    )


class TestSettingsValidation:
    @pytest.mark.parametrize("bursts, message", [
        (((0.0, 1.0),), r"\(start, duration, multiplier\)"),
        (((0.0, 1.0, 2.0, 3.0),), r"\(start, duration, multiplier\)"),
        (((-1.0, 1.0, 2.0),), "burst start"),
        (((0.0, -1.0, 2.0),), "burst duration"),
        (((0.0, 0.0, 2.0),), "burst duration"),
        (((0.0, 1.0, -2.0),), "burst multiplier"),
        (((0.0, 1.0, 0.0),), "burst multiplier"),
        (((2.0, 1.0, 2.0), (0.0, 1.0, 2.0)), "sorted and non-overlapping"),
        (((0.0, 2.0, 2.0), (1.0, 2.0, 2.0)), "sorted and non-overlapping"),
    ], ids=["short", "long", "negative-start", "negative-duration",
            "zero-duration", "negative-multiplier", "zero-multiplier",
            "unsorted", "overlapping"])
    def test_rejects_malformed_windows(self, bursts, message):
        with pytest.raises(ValueError, match=message):
            burst_settings(bursts=bursts)

    def test_windows_are_stored_as_tuples(self):
        settings = burst_settings(bursts=[[1.0, 0.5, 4.0], [2.0, 1.0, 0.5]])
        assert settings.server_rate_bursts == ((1.0, 0.5, 4.0),
                                               (2.0, 1.0, 0.5))

    def test_a_window_may_start_where_the_last_one_ends(self):
        # The end is exclusive, so back-to-back windows do not overlap.
        settings = burst_settings(bursts=((0.0, 1.0, 2.0), (1.0, 1.0, 3.0)))
        assert len(settings.server_rate_bursts) == 2

    def test_an_empty_tuple_means_no_bursts(self):
        assert burst_settings(bursts=()).server_rate_bursts == ()
        assert (run_fingerprint(burst_run(bursts=()))
                == run_fingerprint(burst_run(bursts=None)))


def burst_run(bursts=((2.0, 2.0, 4.0),), queries=800, seed=0):
    sut = FixedLatencySUT(latency=0.002)
    return run_benchmark(
        sut, EchoQSL(),
        burst_settings(bursts=bursts, queries=queries, seed=seed))


class TestServerDriverIntegration:
    def test_flash_crowd_densifies_arrivals(self):
        result = burst_run()
        issues = sorted(r.issue_time
                        for r in result.log.completed_records())
        inside = sum(1 for t in issues if 2.0 <= t < 4.0)
        before = sum(1 for t in issues if 0.0 <= t < 2.0)
        # 4x multiplier: the window must be much denser than baseline
        # (2x is a comfortable statistical floor for these counts).
        assert before > 50
        assert inside > 2 * before

    def test_multiplier_inside_and_outside_windows(self):
        # A 4x crowd over [1, 3) and a 0.5x lull over [5, 6): the rate
        # is the multiplier of the window in force, 1x between them.
        result = burst_run(bursts=((1.0, 2.0, 4.0), (5.0, 1.0, 0.5)),
                                queries=1_400)
        issues = [r.issue_time for r in result.log.completed_records()]

        def rate(start, end):
            return sum(1 for t in issues if start <= t < end) / (end - start)

        base = rate(0.0, 1.0)
        assert rate(1.0, 3.0) > 2.5 * base
        assert 0.6 * base < rate(3.0, 5.0) < 1.5 * base
        assert rate(5.0, 6.0) < 0.75 * base

    def test_burst_runs_are_seed_deterministic(self):
        a, b = burst_run(seed=9), burst_run(seed=9)
        assert run_fingerprint(a) == run_fingerprint(b)
        assert (sorted(r.issue_time for r in a.log.completed_records())
                == sorted(r.issue_time
                          for r in b.log.completed_records()))

    def test_no_bursts_field_defaults_to_none(self):
        settings = burst_settings()
        assert settings.server_rate_bursts is None
