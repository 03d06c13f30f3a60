"""Scenario metric computation (Table II)."""

import pytest

from repro.core.config import Scenario, TestSettings
from repro.core.metrics import compute_metrics, window_of
from repro.core.logging import QueryLog
from repro.core.query import Query, QuerySample, QuerySampleResponse


def build_log(latencies, samples_per_query=1, gap=0.1):
    log = QueryLog()
    counter = 0
    for i, latency in enumerate(latencies):
        samples = tuple(
            QuerySample(id=counter + j + 1, index=j)
            for j in range(samples_per_query)
        )
        counter += samples_per_query
        query = Query(id=i + 1, samples=samples)
        log.record_issue(query, i * gap)
        log.record_completion(
            query, i * gap + latency,
            [QuerySampleResponse(s.id, None) for s in samples],
            keep_responses=False,
        )
    return log


def test_single_stream_metric_is_p90_latency():
    latencies = [0.01 * (i + 1) for i in range(10)]   # 10..100 ms
    log = build_log(latencies)
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM)
    metrics = compute_metrics(log, settings)
    assert metrics.primary_metric == pytest.approx(0.09)
    assert "latency" in metrics.primary_metric_name


def test_server_metric_is_the_scheduled_qps():
    log = build_log([0.01] * 20)
    settings = TestSettings(scenario=Scenario.SERVER, server_target_qps=123.0,
                            server_latency_bound=1.0)
    metrics = compute_metrics(log, settings)
    assert metrics.primary_metric == 123.0


def test_multistream_metric_is_n():
    log = build_log([0.01] * 20, samples_per_query=6)
    settings = TestSettings(scenario=Scenario.MULTI_STREAM,
                            multistream_samples_per_query=6,
                            multistream_interval=0.05)
    metrics = compute_metrics(log, settings)
    assert metrics.primary_metric == 6.0


def test_offline_metric_is_throughput():
    # One query, 100 samples, 2 s from issue to completion.
    log = build_log([2.0], samples_per_query=100)
    settings = TestSettings(scenario=Scenario.OFFLINE)
    metrics = compute_metrics(log, settings)
    assert metrics.primary_metric == pytest.approx(50.0)
    assert metrics.throughput == pytest.approx(50.0)


def test_latency_summary_statistics():
    log = build_log([0.010, 0.020, 0.030, 0.040])
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM)
    metrics = compute_metrics(log, settings)
    assert metrics.latency_mean == pytest.approx(0.025)
    assert metrics.latency_p50 == pytest.approx(0.020)
    assert metrics.latency_p99 == pytest.approx(0.040)
    assert metrics.query_count == 4
    assert metrics.sample_count == 4


def test_run_duration_first_issue_to_last_completion():
    log = build_log([0.05, 0.05, 0.05], gap=1.0)
    assert window_of(log.completed()) == pytest.approx(2.05)


def test_empty_log_rejected():
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM)
    with pytest.raises(ValueError):
        compute_metrics(QueryLog(), settings)
