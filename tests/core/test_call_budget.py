"""Tier-1 gate on the virtual-time hot path, in machine-independent units.

Python + C function calls per query (plain Server run) and per streamed
chunk, counted by ``cProfile`` whose timings are ignored.  For a given
seed the counts repeat exactly, so the ceilings sit ~10% above what the
code does today and a change that adds a frame per event trips them.
Re-baselining is described in CONTRIBUTING.md.
"""

import cProfile

from repro.core import Scenario, TestSettings, run_benchmark
from repro.streaming import StreamModel, StreamingSUT
from repro.sut.echo import EchoSUT

#: Measured 74.91 calls/query and 18.43 calls/chunk (python 3.11.7).
PLAIN_CALLS_PER_QUERY = 82.5
STREAM_CALLS_PER_CHUNK = 20.3

QUERIES = 500


def profiled_run(sut, qsl):
    settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=1000.0,
        server_latency_bound=10.0, min_query_count=QUERIES,
        min_duration=0.0, seed=0)
    # The first run in a process pays ~5,000 calls of lazy imports; keep
    # them out of the count.
    run_benchmark(sut, qsl, settings.with_overrides(min_query_count=20))
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_benchmark(sut, qsl, settings)
    finally:
        profile.disable()
    assert result.valid and result.log.query_count == QUERIES
    return sum(entry.callcount for entry in profile.getstats()), result.log


def test_plain_server_run_stays_inside_its_call_budget(echo_qsl):
    calls, log = profiled_run(EchoSUT(latency=0.5e-3), echo_qsl)
    per_query = calls / log.query_count
    print(f"plain: {per_query:.2f} calls/query")
    assert per_query <= PLAIN_CALLS_PER_QUERY


def test_streamed_server_run_stays_inside_its_call_budget(echo_qsl):
    model = StreamModel(first_token_delay=1e-3, inter_token_delay=1e-4, seed=0)
    calls, log = profiled_run(
        StreamingSUT(EchoSUT(latency=0.5e-3), model=model), echo_qsl)
    per_chunk = calls / log.stream_chunks
    print(f"streamed: {per_chunk:.2f} calls/chunk, "
          f"{log.stream_chunks / log.query_count:.1f} chunks/query")
    assert log.stream_chunks > 15 * QUERIES
    assert per_chunk <= STREAM_CALLS_PER_CHUNK
