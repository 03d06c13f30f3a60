"""Chrome trace export."""

import json

import pytest

from repro.core.logging import QueryLog
from repro.core.query import Query, QuerySample, QuerySampleResponse
from repro.core.trace import to_chrome_trace, write_chrome_trace


def build_log(intervals):
    """``intervals``: list of (issue, completion) pairs."""
    log = QueryLog()
    for i, (issue, completion) in enumerate(intervals, start=1):
        query = Query(id=i, samples=(QuerySample(id=i * 10, index=0),))
        log.record_issue(query, issue)
        log.record_completion(
            query, completion,
            [QuerySampleResponse(i * 10, None)], keep_responses=False)
    return log


def events_of(trace_json):
    return [e for e in json.loads(trace_json)["traceEvents"]
            if e["ph"] == "X"]


def test_one_event_per_query():
    log = build_log([(0.0, 0.1), (0.2, 0.25), (0.3, 0.5)])
    events = events_of(to_chrome_trace(log))
    assert len(events) == 3


def test_timestamps_in_microseconds():
    log = build_log([(0.001, 0.003)])
    event = events_of(to_chrome_trace(log))[0]
    assert event["ts"] == pytest.approx(1_000.0)
    assert event["dur"] == pytest.approx(2_000.0)


def test_nonoverlapping_queries_share_a_track():
    log = build_log([(0.0, 0.1), (0.2, 0.3), (0.4, 0.5)])
    events = events_of(to_chrome_trace(log))
    assert {e["tid"] for e in events} == {0}


def test_overlapping_queries_get_distinct_tracks():
    log = build_log([(0.0, 0.5), (0.1, 0.6), (0.2, 0.7)])
    events = events_of(to_chrome_trace(log))
    assert len({e["tid"] for e in events}) == 3


def test_track_reuse_after_completion():
    log = build_log([(0.0, 0.1), (0.05, 0.2), (0.3, 0.4)])
    events = events_of(to_chrome_trace(log))
    # Third query starts after both finished: reuses a freed track.
    assert events[2]["tid"] in {0, 1}


def test_metadata_and_args():
    log = build_log([(0.0, 0.1)])
    payload = json.loads(to_chrome_trace(log))
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"][0]
    assert meta["args"]["name"] == "SUT"
    event = events_of(to_chrome_trace(log))[0]
    assert event["args"]["samples"] == 1


def test_write_to_file(tmp_path):
    log = build_log([(0.0, 0.1)])
    path = tmp_path / "trace.json"
    write_chrome_trace(log, path)
    assert json.loads(path.read_text())["displayTimeUnit"] == "ms"


def test_end_to_end_run_traces(echo_qsl):
    from repro.core import Scenario, TestSettings, run_benchmark
    from tests.conftest import FixedLatencySUT

    settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                            min_query_count=20, min_duration=0.1)
    result = run_benchmark(FixedLatencySUT(0.002), echo_qsl, settings)
    events = events_of(to_chrome_trace(result.log))
    assert len(events) == result.metrics.query_count


# -- network spans -------------------------------------------------------------


def test_transport_timing_accounting():
    from repro.core.trace import TransportTiming

    timing = TransportTiming(
        send_time=1.0, recv_time=1.010, server_recv=100.0, server_send=100.004)
    assert timing.round_trip == pytest.approx(0.010)
    assert timing.server_time == pytest.approx(0.004)
    assert timing.network_time == pytest.approx(0.006)


def test_network_time_never_negative_on_clock_skew():
    from repro.core.trace import TransportTiming

    timing = TransportTiming(
        send_time=1.0, recv_time=1.001, server_recv=100.0, server_send=100.005)
    assert timing.network_time == 0.0


def test_transport_spans_emitted_on_network_process():
    from repro.core.trace import TransportTiming

    log = build_log([(0.0, 0.010), (0.020, 0.030)])
    transport = {
        1: TransportTiming(send_time=0.0, recv_time=0.009,
                           server_recv=50.0, server_send=50.004),
    }
    trace = json.loads(to_chrome_trace(log, transport=transport))
    events = trace["traceEvents"]
    net = [e for e in events if e.get("pid") == 2]
    names = {e["name"] for e in net}
    assert "rpc query 1" in names
    assert "send" in names and "receive" in names
    rpc = next(e for e in net if e["name"] == "rpc query 1")
    assert rpc["dur"] == pytest.approx(9_000.0)
    assert rpc["args"]["server_time_ms"] == pytest.approx(4.0)
    # Query 2 has no transport record: only query 1 gets network spans.
    assert not any("query 2" in e["name"] for e in net)


def test_no_network_process_without_transport():
    log = build_log([(0.0, 0.010)])
    trace = json.loads(to_chrome_trace(log))
    assert not any(e.get("pid") == 2 for e in trace["traceEvents"])
