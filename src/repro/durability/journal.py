"""Crash-safe write-ahead journal for LoadGen runs.

A benchmark run that dies mid-flight — power loss, OOM kill, a flaky
device rebooting — normally discards the whole experiment.  The journal
makes the run durable: every query lifecycle event (issued, completed,
failed) is appended to an on-disk log *before* the run proceeds, so an
interrupted run can be resumed (``repro.durability.resume``) and
continued deterministically to the same result as an uninterrupted one.

File format (version 1)::

    magic   b"RJNL1\\n"
    frame*  <u32 payload_len> <u32 crc32(payload)> <payload>

Each payload is a pickled ``(kind, fields)`` pair.  Record kinds:

* ``header``     — run settings, journal version, payload policy;
* ``issued``     — query id, issue time, sample count, and a CRC over
  the sample ids (divergence detection on resume);
* ``completed``  — query id, completion time, and — in accuracy mode or
  when the payload audit is on — the ``(sample_id, data)`` pairs;
* ``failed``     — query id, failure time, classified reason;
* ``checkpoint`` — periodic scenario-state snapshot (progress counters);
* ``end``        — the run finished; carries a result digest.

The writer flushes every frame to the operating system, so a SIGKILL of
the benchmark process never loses an acknowledged record; the
:class:`FsyncPolicy` additionally controls when frames are forced to the
disk platter (machine-crash durability).  The reader tolerates a torn
tail: a truncated or CRC-corrupt final frame marks the journal as
``truncated`` and everything before it is trusted — exactly the
semantics of a crash mid-append.

See ``docs/durability.md`` for the full format and resume semantics.
"""

from __future__ import annotations

import enum
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..bounds import AT_LEAST_ONE, POSITIVE, check_range
from ..core.config import TestSettings
from ..core.query import Query
from ..metrics import MetricsRegistry, export_ledger, exported

#: First bytes of every journal file; bumping the trailing digit is a
#: format version change (readers refuse unknown magics loudly).
MAGIC = b"RJNL1\n"

#: Journal record-schema version, stored in the header record.
JOURNAL_VERSION = 1

_FRAME = struct.Struct("<II")


class JournalError(RuntimeError):
    """A journal could not be written, read, or replayed.

    ``reason`` is a stable machine-readable classification code
    (``"no-journal"``, ``"bad-magic"``, ``"no-header"``,
    ``"version-mismatch"``, ``"replay-divergence"``, ...); the message
    carries the human-readable detail.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(f"[{reason}] {message}")
        self.reason = reason


class ResumeError(JournalError):
    """Resuming from a journal failed in a classified way."""


class FsyncPolicy(enum.Enum):
    """When journal frames are forced to the disk platter.

    Every policy still flushes each frame to the OS page cache, so a
    crash of the *process* (SIGKILL, abort) never loses an acknowledged
    record; fsync only matters for machine crashes and power loss.
    """

    #: ``fsync`` after every record: no acknowledged record is ever
    #: lost, at the cost of one disk round-trip per query event.
    ALWAYS = "always"
    #: ``fsync`` every ``fsync_interval`` records (and on close).
    INTERVAL = "interval"
    #: Never ``fsync`` explicitly; the OS writes back on its own
    #: schedule.  Survives process kills, not power loss.
    NEVER = "never"


@dataclass
class JournalStats:
    """Cumulative writer-side accounting."""

    records: int = 0
    bytes: int = exported(
        "durability_journal_bytes_total",
        "Bytes appended to the run journal (frames + payloads)")
    fsyncs: int = exported(
        "durability_journal_fsyncs_total",
        "Times the journal was forced to the disk platter")
    #: Events skipped because the journal already holds them (resume).
    skipped: int = 0
    checkpoints: int = exported(
        "durability_checkpoints_total",
        "Periodic scenario-state checkpoints written")


class JournalWriter:
    """Low-level CRC-framed append-only record writer.

    ``on_append`` is called with the running record count after every
    frame reaches the OS — the chaos tests use it as a deterministic
    kill switch ("die after the Nth record").
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: "FsyncPolicy | str" = FsyncPolicy.NEVER,
        fsync_interval: int = 64,
        append: bool = False,
        truncate_to: Optional[int] = None,
        on_append: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.path = str(path)
        self.fsync = FsyncPolicy(fsync)
        check_range("fsync_interval", fsync_interval, AT_LEAST_ONE)
        self.fsync_interval = fsync_interval
        self.on_append = on_append
        self.stats = JournalStats()
        self._since_fsync = 0
        if append and os.path.exists(self.path):
            self._file = open(self.path, "r+b")
            if truncate_to is not None:
                # Resume after a crash: discard the torn tail frame so
                # appended records follow the last *intact* one - frames
                # after a tear would otherwise be unreachable to readers.
                self._file.truncate(truncate_to)
                self._file.seek(truncate_to)
            else:
                self._file.seek(0, os.SEEK_END)
        else:
            self._file = open(self.path, "wb")
        if self._file.tell() == 0:
            self._file.write(MAGIC)
            self._file.flush()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def append(self, kind: str, fields: dict) -> None:
        """Frame, write, and flush one record to the OS."""
        if self._file.closed:
            raise JournalError(
                "closed", f"journal {self.path} is already closed")
        payload = pickle.dumps((kind, fields),
                               protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload))
        self._file.write(frame)
        self._file.write(payload)
        self._file.flush()
        self.stats.records += 1
        self.stats.bytes += len(frame) + len(payload)
        self._since_fsync += 1
        if self.fsync is FsyncPolicy.ALWAYS or (
            self.fsync is FsyncPolicy.INTERVAL
            and self._since_fsync >= self.fsync_interval
        ):
            os.fsync(self._file.fileno())
            self.stats.fsyncs += 1
            self._since_fsync = 0
        if self.on_append is not None:
            self.on_append(self.stats.records)

    def close(self) -> None:
        if self._file.closed:
            return
        self._file.flush()
        if self.fsync is not FsyncPolicy.NEVER and self._since_fsync:
            os.fsync(self._file.fileno())
            self.stats.fsyncs += 1
            self._since_fsync = 0
        self._file.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_frames(path: str) -> Tuple[List[Tuple[str, dict]], bool, int]:
    """Read every intact ``(kind, fields)`` record from a journal.

    Returns ``(records, truncated, intact_bytes)``.  ``truncated`` is
    True when the file ends in a torn or corrupt frame — the
    crash-mid-append case — in which case everything *before* the tear
    is returned and trusted; ``intact_bytes`` is the file offset just
    past the last intact frame (where a resume writer must truncate to
    before appending).  Raises :class:`JournalError` for a missing file
    or foreign magic.
    """
    try:
        blob = open(path, "rb").read()
    except FileNotFoundError:
        raise JournalError("no-journal", f"no journal at {path}")
    if not blob.startswith(MAGIC):
        raise JournalError(
            "bad-magic",
            f"{path} does not start with the journal magic {MAGIC!r}")
    records: List[Tuple[str, dict]] = []
    offset = len(MAGIC)
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            return records, True, offset  # torn frame header
        length, crc = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        payload = blob[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return records, True, offset  # torn or corrupt payload
        try:
            kind, fields = pickle.loads(payload)
        except Exception:
            return records, True, offset  # undecodable: treat as torn
        records.append((kind, fields))
        offset = start + length
    return records, False, offset


@dataclass(frozen=True)
class IssuedEntry:
    """What the journal knows about one issued query."""

    time: float
    sample_count: int
    ids_crc: int


@dataclass
class JournalState:
    """Parsed view of a run journal, keyed for replay."""

    path: str
    settings: TestSettings
    version: int
    #: Whether ``completed`` records carry response payloads.
    keep_payloads: bool
    log_sample_probability: float
    issued: Dict[int, IssuedEntry] = field(default_factory=dict)
    #: query id -> (completion_time, [(sample_id, data), ...] or None).
    completions: Dict[int, Tuple[float, Optional[list]]] = field(
        default_factory=dict)
    #: query id -> (failure_time, reason).
    failures: Dict[int, Tuple[float, str]] = field(default_factory=dict)
    checkpoints: List[dict] = field(default_factory=list)
    ended: bool = False
    truncated: bool = False
    record_count: int = 0
    #: File offset just past the last intact frame (resume truncates
    #: any torn tail to here before appending).
    intact_bytes: int = 0

    @property
    def resolved_ids(self) -> Set[int]:
        """Queries with a terminal (completed or failed) record."""
        return set(self.completions) | set(self.failures)


def read_run_journal(path: str) -> JournalState:
    """Parse a run journal into replay-ready state.

    Raises :class:`JournalError` with a classified reason when the file
    is missing (``no-journal``), not a journal (``bad-magic``), lacks an
    intact header (``no-header``), or was written by an incompatible
    format version (``version-mismatch``).
    """
    records, truncated, intact_bytes = read_frames(path)
    if not records or records[0][0] != "header":
        raise JournalError(
            "no-header",
            f"{path} holds no intact header record; nothing to resume")
    header = records[0][1]
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            "version-mismatch",
            f"{path} was written by journal version {version}; "
            f"this reader speaks version {JOURNAL_VERSION}")
    state = JournalState(
        path=str(path),
        settings=header["settings"],
        version=version,
        keep_payloads=header["keep_payloads"],
        log_sample_probability=header["log_sample_probability"],
        truncated=truncated,
        record_count=len(records),
        intact_bytes=intact_bytes,
    )
    for kind, fields in records[1:]:
        if kind == "issued":
            state.issued[fields["q"]] = IssuedEntry(
                time=fields["t"], sample_count=fields["n"],
                ids_crc=fields["crc"])
        elif kind == "completed":
            state.completions[fields["q"]] = (fields["t"], fields["r"])
        elif kind == "failed":
            state.failures[fields["q"]] = (fields["t"], fields["reason"])
        elif kind == "checkpoint":
            state.checkpoints.append(fields)
        elif kind == "end":
            state.ended = True
        # Unknown kinds are skipped: minor-version forward compatibility.
    return state


#: Above this sample count the issued-record CRC hashes a deterministic
#: stride through the ids instead of every one, bounding the journaling
#: cost of huge Offline queries (the sample count and both endpoints are
#: always covered, so length changes and reorderings at the edges are
#: still caught; see docs/durability.md for the trade-off).
_CRC_FULL_LIMIT = 2048


def _sample_ids_crc(query: Query) -> int:
    samples = query.samples
    count = len(samples)
    if count <= _CRC_FULL_LIMIT:
        picked = samples
    else:
        stride = count // _CRC_FULL_LIMIT + 1
        picked = list(samples[::stride]) + [samples[-1]]
    ids = np.fromiter((s.id for s in picked), dtype="<u8",
                      count=len(picked))
    return zlib.crc32(ids.tobytes(), count)


class RunJournal:
    """The LoadGen-facing journal: write-ahead query events, periodic
    checkpoints, and resume-aware deduplication.

    Pass an instance to ``run_benchmark(..., journal=)`` (or let
    ``resume_run`` build one).  The LoadGen calls :meth:`begin` before
    the first query, the query log reports every lifecycle event through
    :meth:`on_log_event`, and :meth:`finish` seals the file with an
    ``end`` record.

    On resume the journal is reopened in append mode with
    :meth:`resume_from`: events already on disk are skipped instead of
    re-written, so a journal resumed N times still holds exactly one
    record per event.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: "FsyncPolicy | str" = FsyncPolicy.NEVER,
        fsync_interval: int = 64,
        checkpoint_period: Optional[float] = 0.5,
        registry: Optional[MetricsRegistry] = None,
        on_append: Optional[Callable[[int], None]] = None,
    ) -> None:
        if checkpoint_period is not None:
            check_range("checkpoint_period", checkpoint_period, POSITIVE)
        self.path = str(path)
        self.fsync = FsyncPolicy(fsync)
        self.fsync_interval = fsync_interval
        self.checkpoint_period = checkpoint_period
        self.on_append = on_append
        self._writer: Optional[JournalWriter] = None
        self._keep_payloads = False
        #: Query ids whose ``issued`` record is already on disk.
        self._known_issued: Set[int] = set()
        #: Query ids with a terminal record already on disk.
        self._known_resolved: Set[int] = set()
        self._resuming = False
        self._truncate_to: Optional[int] = None
        #: ``durability_journal_records_total{kind}``: the writer's
        #: ledger has the total, not the split (``None``: no registry).
        self._records = None
        #: Its child per kind, resolved on the kind's first frame (a
        #: kind never appended adds no series).
        self._record_counts: Dict[str, object] = {}
        if registry is not None:
            export_ledger(registry, lambda: self.stats)
            self._records = registry.counter(
                "durability_journal_records_total",
                "Frames appended to the run journal", labels=("kind",))

    # -- lifecycle --------------------------------------------------------------

    def resume_from(self, state: JournalState) -> None:
        """Arm the journal to append to an existing file, skipping the
        events ``state`` already holds."""
        if self._writer is not None:
            raise JournalError(
                "already-begun", "resume_from must precede begin")
        self._known_issued = set(state.issued)
        self._known_resolved = state.resolved_ids
        self._resuming = True
        self._truncate_to = state.intact_bytes

    def begin(self, settings: TestSettings, *, keep_payloads: bool,
              log_sample_probability: float) -> None:
        """Open the file and write the header (fresh journals only)."""
        if self._writer is not None:
            return  # already begun (idempotent for wrapper layers)
        self._keep_payloads = keep_payloads
        self._writer = JournalWriter(
            self.path, fsync=self.fsync,
            fsync_interval=self.fsync_interval,
            append=self._resuming, truncate_to=self._truncate_to,
            on_append=self.on_append,
        )
        if not self._resuming:
            self._append("header", {
                "version": JOURNAL_VERSION,
                "settings": settings,
                "keep_payloads": keep_payloads,
                "log_sample_probability": log_sample_probability,
            })

    @property
    def stats(self) -> JournalStats:
        return self._writer.stats if self._writer else JournalStats()

    def _append(self, kind: str, fields: dict) -> None:
        assert self._writer is not None
        self._writer.append(kind, fields)
        if self._records is not None:
            count = self._record_counts.get(kind)
            if count is None:
                count = self._record_counts[kind] = self._records.labels(
                    kind=kind)
            count.inc()

    # -- the QueryLog observer hook --------------------------------------------

    def on_log_event(self, event: str, query: Query, time: float,
                     payload: object) -> None:
        """Write-ahead one query lifecycle event.

        Called by ``QueryLog`` with ``event`` one of ``"issued"``
        (payload: None), ``"completed"`` (payload: the response list) or
        ``"failed"`` (payload: the classified reason string).
        """
        if self._writer is None or self._writer.closed:
            return
        qid = query.id
        if event == "issued":
            if qid in self._known_issued:
                self._writer.stats.skipped += 1
                return
            self._append("issued", {
                "q": qid, "t": time, "n": query.sample_count,
                "crc": _sample_ids_crc(query),
            })
        elif event == "completed":
            if qid in self._known_resolved:
                self._writer.stats.skipped += 1
                return
            pairs = ([(r.sample_id, r.data) for r in payload]
                     if self._keep_payloads else None)
            self._append("completed", {"q": qid, "t": time, "r": pairs})
        elif event == "failed":
            if qid in self._known_resolved:
                self._writer.stats.skipped += 1
                return
            self._append("failed", {"q": qid, "t": time,
                                    "reason": payload})

    # -- checkpoints and sealing ------------------------------------------------

    def checkpoint(self, time: float, **progress) -> None:
        """Append a scenario-state checkpoint (progress counters)."""
        if self._writer is None or self._writer.closed:
            return
        self._append("checkpoint", {"t": time, **progress})
        self._writer.stats.checkpoints += 1

    def finish(self, result: object) -> None:
        """Seal the journal with an ``end`` record and close the file."""
        if self._writer is None or self._writer.closed:
            return
        digest = {}
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            digest = {
                "query_count": metrics.query_count,
                "primary_metric": metrics.primary_metric,
                "valid": getattr(result, "valid", None),
            }
        self._append("end", digest)
        self.close()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
