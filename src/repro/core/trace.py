"""Chrome trace-event export of a run's query log.

The real LoadGen emits ``mlperf_trace.json`` viewable in
``chrome://tracing``; this module produces the equivalent from a
:class:`~repro.core.logging.QueryLog`: one complete ("X") event per
query on a per-wave track, plus instant events for issues.  Useful for
eyeballing batching behaviour, queue buildup, and the scenario's arrival
pattern.  Streamed queries (``docs/streaming.md``) additionally get a
"first token" instant and a first-to-last-chunk span on their own track,
so TTFT and the token tail are visible inside the total-latency bar.

For Network-division runs the exporter also accepts per-query
:class:`TransportTiming` records (kept by ``NetworkSUT`` and
``SimulatedChannelSUT``): each query then gains a "network" process with
its round-trip span plus send/receive instants, so the wire's share of a
latency bound is visible next to the query's total.

When the run also produced telemetry snapshots
(:class:`repro.metrics.Snapshot`, see ``docs/observability.md``), they
can be passed in as well: every snapshot series becomes a Chrome counter
track ("C" events on a "metrics" process), so queue depth, outstanding
queries, and latency percentiles plot as stacked area charts directly
under the query timeline.

Runs driven by a chaos orchestrator (``docs/chaos.md``) can pass its
applied fault windows via ``chaos=``: each becomes a span on a "chaos"
process, so zone outages and gray-failure brownouts line up visually
with the latency bars and metric counters they caused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .logging import QueryLog
from ..metrics import Snapshot

#: Trace timestamps are microseconds.
_US = 1e6


@dataclass(frozen=True)
class TransportTiming:
    """Wire timestamps for one query's round trip.

    ``send_time`` and ``recv_time`` are client-clock readings (the run
    loop's clock); ``server_recv`` and ``server_send`` are server-clock
    readings.  The two clocks share no epoch, so only *durations* are
    comparable across them - which is all the accounting needs: the
    network's share of a round trip is what the server did not spend.
    """

    #: Client clock: the ISSUE frame left the adapter.
    send_time: float
    #: Client clock: the COMPLETE frame finished arriving.
    recv_time: float
    #: Server clock: the ISSUE frame was admitted.
    server_recv: float
    #: Server clock: the COMPLETE frame was written back.
    server_send: float

    @property
    def round_trip(self) -> float:
        """Client-observed seconds from send to receive."""
        return self.recv_time - self.send_time

    @property
    def server_time(self) -> float:
        """Seconds the query spent inside the server (queue + compute)."""
        return self.server_send - self.server_recv

    @property
    def network_time(self) -> float:
        """The wire's share of the round trip (both directions)."""
        return max(0.0, self.round_trip - self.server_time)


def _assign_tracks(records) -> Dict[int, int]:
    """Greedy interval-graph colouring: overlapping queries get distinct
    track ids so their bars do not overdraw in the viewer."""
    free: List[int] = []
    active: List = []   # (completion_time, track)
    next_track = 0
    assignment: Dict[int, int] = {}
    for record in sorted(records, key=lambda r: r.issue_time):
        still_active = []
        for completion, track in active:
            if completion <= record.issue_time:
                free.append(track)
            else:
                still_active.append((completion, track))
        active = still_active
        if free:
            track = free.pop()
        else:
            track = next_track
            next_track += 1
        assignment[record.query.id] = track
        active.append((record.completion_time, track))
    return assignment


def to_chrome_trace(
    log: QueryLog,
    transport: Optional[Dict[int, TransportTiming]] = None,
    snapshots: Optional[Sequence[Snapshot]] = None,
    chaos: Optional[Sequence] = None,
) -> str:
    """Serialize the log as a Chrome trace-event JSON string.

    ``transport`` maps query id to its :class:`TransportTiming`; when
    given, each covered query also gets a round-trip span plus send and
    receive instants on a separate "network" process, with the
    server/network duration split in the span's args.

    ``snapshots`` (from :attr:`LoadGenResult.snapshots`) adds a
    "metrics" process whose counter tracks replay every telemetry
    series over the run - one "C" event per series per snapshot.

    ``chaos`` takes the fault windows a chaos orchestrator applied
    (any objects with ``kind``/``target``/``start``/``end`` attributes,
    e.g. :class:`repro.faults.chaos.ChaosWindow`): each becomes a span
    on a "chaos" process, so outages and brownouts line up visually
    with the latency bars they caused.  Windows still open (``end`` is
    None) are drawn to the end of the last completed query.
    """
    records = log.completed_records()
    tracks = _assign_tracks(records)
    events = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "args": {"name": "SUT"},
    }]
    for record in records:
        track = tracks[record.query.id]
        events.append({
            "name": f"query {record.query.id}",
            "cat": "query",
            "ph": "X",
            "pid": 1,
            "tid": track,
            "ts": record.issue_time * _US,
            "dur": record.latency * _US,
            "args": {
                "samples": record.query.sample_count,
                "scheduled": record.scheduled_time,
            },
        })
        if record.streamed:
            # Streamed queries get their token timeline on the same
            # track: an instant at the first token and a span covering
            # first-to-last chunk, so TTFT and the streaming tail are
            # visible inside the query's total-latency bar.
            events.append({
                "name": "first token",
                "cat": "stream",
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": track,
                "ts": record.first_chunk_time * _US,
                "args": {"ttft_ms": (record.ttft or 0.0) * 1e3},
            })
            events.append({
                "name": f"stream {record.query.id}",
                "cat": "stream",
                "ph": "X",
                "pid": 1,
                "tid": track,
                "ts": record.first_chunk_time * _US,
                "dur": (record.last_chunk_time - record.first_chunk_time)
                       * _US,
                "args": {
                    "tokens": record.token_count,
                    "chunks": record.chunk_count,
                    "tpot_ms": (record.tpot or 0.0) * 1e3,
                    "restarts": record.stream_restarts,
                },
            })
    if transport:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": 2,
            "args": {"name": "network"},
        })
        for record in records:
            timing = transport.get(record.query.id)
            if timing is None:
                continue
            track = tracks[record.query.id]
            events.append({
                "name": f"rpc query {record.query.id}",
                "cat": "network",
                "ph": "X",
                "pid": 2,
                "tid": track,
                "ts": timing.send_time * _US,
                "dur": timing.round_trip * _US,
                "args": {
                    "server_time_ms": timing.server_time * 1e3,
                    "network_time_ms": timing.network_time * 1e3,
                },
            })
            events.append({
                "name": "send",
                "cat": "network",
                "ph": "i",
                "s": "t",
                "pid": 2,
                "tid": track,
                "ts": timing.send_time * _US,
            })
            events.append({
                "name": "receive",
                "cat": "network",
                "ph": "i",
                "s": "t",
                "pid": 2,
                "tid": track,
                "ts": timing.recv_time * _US,
            })
    if snapshots:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": 3,
            "args": {"name": "metrics"},
        })
        for snap in snapshots:
            for series, value in snap.values.items():
                events.append({
                    "name": series,
                    "cat": "metrics",
                    "ph": "C",
                    "pid": 3,
                    "ts": snap.time * _US,
                    "args": {"value": value},
                })
    if chaos:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": 4,
            "args": {"name": "chaos"},
        })
        horizon = max(
            (r.completion_time for r in records), default=0.0)
        for tid, window in enumerate(chaos):
            end = window.end if window.end is not None else horizon
            events.append({
                "name": f"{window.kind} {window.target}",
                "cat": "chaos",
                "ph": "X",
                "pid": 4,
                "tid": tid,
                "ts": window.start * _US,
                "dur": max(0.0, end - window.start) * _US,
                "args": {"kind": window.kind, "target": window.target},
            })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      indent=1)


def write_chrome_trace(
    log: QueryLog,
    path,
    transport: Optional[Dict[int, TransportTiming]] = None,
    snapshots: Optional[Sequence[Snapshot]] = None,
    chaos: Optional[Sequence] = None,
) -> None:
    """Write the trace to ``path`` (the mlperf_trace.json equivalent)."""
    from pathlib import Path

    Path(path).write_text(
        to_chrome_trace(log, transport, snapshots=snapshots, chaos=chaos)
    )
