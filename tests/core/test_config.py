"""Rule constants and settings resolution (Tables II, III, V)."""

import pytest

from repro.core.config import (
    MIN_DURATION_SECONDS,
    OFFLINE_MIN_SAMPLES,
    SERVER_REQUIRED_RUNS,
    SINGLE_STREAM_MIN_QUERIES,
    Scenario,
    Task,
    TestMode,
    TestSettings,
    task_rules,
)


class TestScenarioMetadata:
    def test_five_scenarios(self):
        # The paper's four plus the session scenario (docs/sessions.md).
        assert len(list(Scenario)) == 5

    def test_short_names(self):
        assert {s.short_name for s in Scenario} == \
            {"SS", "MS", "S", "O", "SE"}

    def test_metric_names_mention_the_right_quantity(self):
        assert "latency" in Scenario.SINGLE_STREAM.metric_name
        assert "streams" in Scenario.MULTI_STREAM.metric_name
        assert "queries per second" in Scenario.SERVER.metric_name
        assert "samples/second" in Scenario.OFFLINE.metric_name
        assert "sessions" in Scenario.SESSION.metric_name


class TestTaskMetadata:
    def test_five_tasks(self):
        assert len(list(Task)) == 5

    def test_areas(self):
        assert Task.MACHINE_TRANSLATION.area == "language"
        assert all(
            t.area == "vision" for t in Task if t is not Task.MACHINE_TRANSLATION
        )


class TestTableIII:
    """The latency constraints exactly as published."""

    @pytest.mark.parametrize("task,interval_ms,bound_ms", [
        (Task.IMAGE_CLASSIFICATION_HEAVY, 50, 15),
        (Task.IMAGE_CLASSIFICATION_LIGHT, 50, 10),
        (Task.OBJECT_DETECTION_HEAVY, 66, 100),
        (Task.OBJECT_DETECTION_LIGHT, 50, 10),
        (Task.MACHINE_TRANSLATION, 100, 250),
    ])
    def test_constraints(self, task, interval_ms, bound_ms):
        rules = task_rules(task)
        assert rules.multistream_interval == pytest.approx(interval_ms / 1e3)
        assert rules.server_latency_bound == pytest.approx(bound_ms / 1e3)

    def test_violation_budgets(self):
        # 1% for vision, 3% for translation (Section III-C).
        for task in Task:
            rules = task_rules(task)
            expected = 0.03 if task is Task.MACHINE_TRANSLATION else 0.01
            assert rules.max_violation_fraction == expected

    def test_tail_percentiles(self):
        assert task_rules(Task.MACHINE_TRANSLATION).tail_latency_percentile == 0.97
        assert task_rules(Task.IMAGE_CLASSIFICATION_HEAVY).tail_latency_percentile == 0.99


class TestTableV:
    def test_latency_bounded_query_counts(self):
        for task in Task:
            expected = 90_112 if task is Task.MACHINE_TRANSLATION else 270_336
            assert task_rules(task).latency_bounded_query_count == expected

    def test_single_stream_and_offline_minimums(self):
        assert SINGLE_STREAM_MIN_QUERIES == 1_024
        assert OFFLINE_MIN_SAMPLES == 24_576

    def test_run_rules(self):
        assert MIN_DURATION_SECONDS == 60.0
        assert SERVER_REQUIRED_RUNS == 5


class TestSettingsResolution:
    def test_defaults_by_scenario(self):
        ss = TestSettings(scenario=Scenario.SINGLE_STREAM)
        assert ss.resolved_min_query_count == 1_024
        off = TestSettings(scenario=Scenario.OFFLINE)
        assert off.resolved_min_query_count == 1
        assert off.resolved_offline_samples == 24_576

    def test_task_rules_flow_through(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                task=Task.MACHINE_TRANSLATION)
        assert settings.resolved_server_latency_bound == 0.250
        assert settings.resolved_min_query_count == 90_112
        assert settings.resolved_tail_percentile == 0.97
        assert settings.resolved_max_violation_fraction == 0.03

    def test_explicit_overrides_win(self):
        settings = TestSettings(
            scenario=Scenario.SERVER,
            task=Task.IMAGE_CLASSIFICATION_HEAVY,
            server_latency_bound=0.123,
            min_query_count=10,
            min_duration=1.0,
        )
        assert settings.resolved_server_latency_bound == 0.123
        assert settings.resolved_min_query_count == 10
        assert settings.resolved_min_duration == 1.0

    def test_missing_task_and_bound_raises(self):
        settings = TestSettings(scenario=Scenario.SERVER)
        with pytest.raises(ValueError):
            _ = settings.resolved_server_latency_bound

    def test_missing_task_and_interval_raises(self):
        settings = TestSettings(scenario=Scenario.MULTI_STREAM)
        with pytest.raises(ValueError):
            _ = settings.resolved_multistream_interval

    def test_default_tail_percentile_without_task(self):
        settings = TestSettings(scenario=Scenario.SERVER,
                                server_latency_bound=0.1)
        assert settings.resolved_tail_percentile == 0.99

    def test_with_overrides_returns_new_object(self):
        settings = TestSettings(scenario=Scenario.SERVER)
        other = settings.with_overrides(server_target_qps=42.0)
        assert other.server_target_qps == 42.0
        assert settings.server_target_qps == 1.0

    def test_invalid_qps_rejected(self):
        with pytest.raises(ValueError):
            TestSettings(scenario=Scenario.SERVER, server_target_qps=0.0)

    def test_invalid_samples_per_query_rejected(self):
        with pytest.raises(ValueError):
            TestSettings(scenario=Scenario.MULTI_STREAM,
                         multistream_samples_per_query=0)

    def test_default_mode_is_performance(self):
        assert TestSettings(scenario=Scenario.OFFLINE).mode is TestMode.PERFORMANCE


class TestSettingsInputValidation:
    """Every nonsensical knob is rejected at construction time."""

    def test_negative_qps_rejected(self):
        with pytest.raises(ValueError, match="server_target_qps"):
            TestSettings(scenario=Scenario.SERVER, server_target_qps=-1.0)

    def test_zero_multistream_interval_rejected(self):
        with pytest.raises(ValueError, match="multistream_interval"):
            TestSettings(scenario=Scenario.MULTI_STREAM,
                         multistream_interval=0.0)

    def test_negative_multistream_interval_rejected(self):
        with pytest.raises(ValueError, match="multistream_interval"):
            TestSettings(scenario=Scenario.MULTI_STREAM,
                         multistream_interval=-0.05)

    def test_zero_server_latency_bound_rejected(self):
        with pytest.raises(ValueError, match="server_latency_bound"):
            TestSettings(scenario=Scenario.SERVER, server_latency_bound=0.0)

    @pytest.mark.parametrize("percentile", [0.0, 1.0, -0.5, 1.5])
    def test_tail_percentile_outside_unit_interval_rejected(self, percentile):
        with pytest.raises(ValueError, match="tail_latency_percentile"):
            TestSettings(scenario=Scenario.SERVER,
                         tail_latency_percentile=percentile)

    def test_zero_min_query_count_rejected(self):
        with pytest.raises(ValueError, match="min_query_count"):
            TestSettings(scenario=Scenario.SINGLE_STREAM, min_query_count=0)

    def test_negative_min_duration_rejected(self):
        with pytest.raises(ValueError, match="min_duration"):
            TestSettings(scenario=Scenario.SINGLE_STREAM, min_duration=-1.0)

    def test_nan_min_duration_rejected(self):
        with pytest.raises(ValueError, match="min_duration"):
            TestSettings(scenario=Scenario.SINGLE_STREAM,
                         min_duration=float("nan"))

    def test_zero_offline_sample_count_rejected(self):
        with pytest.raises(ValueError, match="offline_sample_count"):
            TestSettings(scenario=Scenario.OFFLINE, offline_sample_count=0)

    def test_zero_performance_sample_count_rejected(self):
        with pytest.raises(ValueError, match="performance_sample_count"):
            TestSettings(scenario=Scenario.SINGLE_STREAM,
                         performance_sample_count=0)

    def test_zero_watchdog_timeout_rejected(self):
        with pytest.raises(ValueError, match="watchdog_timeout"):
            TestSettings(scenario=Scenario.SINGLE_STREAM,
                         watchdog_timeout=0.0)

    def test_negative_watchdog_timeout_rejected(self):
        with pytest.raises(ValueError, match="watchdog_timeout"):
            TestSettings(scenario=Scenario.SINGLE_STREAM,
                         watchdog_timeout=-5.0)

    def test_valid_watchdog_accepted(self):
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                watchdog_timeout=30.0)
        assert settings.watchdog_timeout == 30.0

    def test_with_overrides_revalidates(self):
        settings = TestSettings(scenario=Scenario.SERVER)
        with pytest.raises(ValueError):
            settings.with_overrides(server_target_qps=0.0)

    @pytest.mark.parametrize("field, value", [
        # NaN made the run raise from the event loop.
        ("server_target_qps", float("nan")),
        ("watchdog_timeout", float("nan")),
        ("multistream_interval", float("nan")),
        # NaN switched the latency rule off: every run was VALID.
        ("server_latency_bound", float("nan")),
        # inf issued every Server query at t = 0, and VALID.
        ("server_target_qps", float("inf")),
        ("session_think_time_mean", float("inf")),
        ("min_duration", float("inf")),
    ])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestSettings(scenario=Scenario.SERVER, **{field: value})

    @pytest.mark.parametrize("size", [0, -8])
    def test_burst_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="server_burst_size must be >= 1"):
            TestSettings(scenario=Scenario.SERVER, server_burst_size=size)

    @pytest.mark.parametrize("scenario", [
        s for s in Scenario if s is not Scenario.SERVER])
    def test_bursts_belong_to_the_server_scenario(self, scenario):
        assert TestSettings(scenario=scenario,
                            server_burst_size=1).server_burst_size == 1
        with pytest.raises(ValueError, match="server scenario only"):
            TestSettings(scenario=scenario, server_burst_size=2)
