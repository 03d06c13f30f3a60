"""EchoSUT: zero-latency echo plus the finite-capacity slot model."""

import pytest

from repro.core.events import EventLoop, VirtualClock
from repro.core.query import Query, QuerySample
from repro.sut.echo import EchoSUT


def drive(sut, queries):
    loop = EventLoop(VirtualClock())
    finished = {}
    sut.start_run(loop, lambda q, r: finished.setdefault(q.id, loop.now))
    for query in queries:
        sut.issue_query(query)
    loop.run()
    return finished


def burst(count):
    return [Query(id=i, samples=(QuerySample(i * 10, 0),), issue_time=0.0)
            for i in range(count)]


def test_rejects_bad_knobs():
    with pytest.raises(ValueError, match="latency"):
        EchoSUT(latency=-1.0)
    with pytest.raises(ValueError, match="concurrency"):
        EchoSUT(concurrency=0)


def test_responses_echo_each_sample_index():
    sut = EchoSUT()
    loop = EventLoop(VirtualClock())
    answers = []
    sut.start_run(loop, lambda q, r: answers.append(r))
    sut.issue_query(Query(id=1, samples=(QuerySample(7, 42),
                                         QuerySample(8, 3))))
    (responses,) = answers
    assert [(r.sample_id, r.data) for r in responses] == [(7, 42), (8, 3)]


def test_zero_latency_completes_inside_issue_query():
    sut = EchoSUT()
    loop = EventLoop(VirtualClock())
    answers = []
    sut.start_run(loop, lambda q, r: answers.append(q.id))
    sut.issue_query(burst(1)[0])
    # Answered before the loop ran, with nothing left scheduled.
    assert answers == [0]
    assert loop.pending() == 0


def test_zero_latency_slots_complete_inside_issue_query():
    finished = drive(EchoSUT(latency=0.0, concurrency=1), burst(3))
    assert list(finished.values()) == [0.0, 0.0, 0.0]


def test_counts_every_query_served():
    sut = EchoSUT(latency=0.001, concurrency=2)
    drive(sut, burst(5))
    assert sut.queries_served == 5


def test_name_defaults_to_echo():
    assert EchoSUT().name == "echo"
    assert EchoSUT(name="edge").name == "edge"


def test_a_new_run_starts_with_every_slot_free():
    sut = EchoSUT(latency=0.002, concurrency=1)
    drive(sut, burst(3))
    # A second run on a fresh clock must not queue behind the first
    # run's busy-until times.
    finished = drive(sut, burst(1))
    assert finished[0] == pytest.approx(0.002)


def test_infinite_capacity_completes_a_burst_in_one_service_time():
    finished = drive(EchoSUT(latency=0.002), burst(5))
    assert all(t == pytest.approx(0.002) for t in finished.values())


def test_single_slot_serializes_a_burst():
    finished = drive(EchoSUT(latency=0.002, concurrency=1), burst(4))
    assert sorted(finished.values()) == pytest.approx(
        [0.002, 0.004, 0.006, 0.008])


def test_slots_drain_a_burst_in_parallel_waves():
    finished = drive(EchoSUT(latency=0.002, concurrency=2), burst(6))
    assert sorted(finished.values()) == pytest.approx(
        [0.002, 0.002, 0.004, 0.004, 0.006, 0.006])


def test_slots_free_up_between_bursts():
    sut = EchoSUT(latency=0.002, concurrency=1)
    loop = EventLoop(VirtualClock())
    finished = {}
    sut.start_run(loop, lambda q, r: finished.setdefault(q.id, loop.now))
    sut.issue_query(burst(1)[0])
    loop.run()
    # Much later, the slot must start fresh from "now", not chain off
    # the stale busy-until time.
    loop.schedule_after(1.0, lambda: sut.issue_query(
        Query(id=99, samples=(QuerySample(990, 0),), issue_time=1.002)))
    loop.run()
    assert finished[99] == pytest.approx(1.004)
