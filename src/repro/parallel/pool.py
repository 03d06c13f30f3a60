"""Process worker pool for the parallel SUT backend.

One OS process per worker, a duplex pipe each for control messages, and
a pair of shared-memory arenas per worker (input tensors down, result
tensors up) so the hot path moves descriptors, not data.  The design
constraints, in order:

* **Determinism** -- worker ``index`` and the pool ``seed`` fully
  determine each worker's RNG (``SeedSequence((seed, index))``), so an
  accuracy run is bit-for-bit reproducible at any worker count: the
  shard -> worker mapping is a pure function of the sample order.  A
  crash *replacement* worker derives from
  ``SeedSequence((seed, index, restart_count))`` instead -- still fully
  deterministic, but never a replay of the dead worker's stream.
* **Crash visibility** -- a worker dying mid-batch must surface as a
  :class:`WorkerCrashed` within one poll interval, never as a hang.
  The SUT layer turns that into ``QueryFailure`` so ``ResilientSUT``
  can retry; dead workers are respawned before the next dispatch.
* **No pickling of tensors on the hot path** -- numpy shards travel
  through :mod:`repro.parallel.shm`; the pipe carries only job ids and
  array specs.  A ``transport="pickle"`` mode exists purely so the
  benchmark can quantify what the arena buys.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..bounds import AT_LEAST_ONE, POSITIVE, check_range
from ..metrics import exported
from .shm import ArenaCache, ArraySpec, ShmArena, as_arrays, packed_size

#: Seconds between liveness polls while waiting on a worker reply.
_POLL = 0.05


class WorkerCrashed(RuntimeError):
    """A worker process died (or timed out) with a job outstanding."""

    def __init__(self, index: int, detail: str) -> None:
        super().__init__(f"worker {index} crashed: {detail}")
        self.index = index
        self.detail = detail


@dataclass
class ShardOutcome:
    """What one worker reported back for its shard of a dispatch."""

    outputs: List[object]
    compute_seconds: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    via_shm: bool = True


@dataclass
class _Worker:
    index: int
    process: multiprocessing.Process
    conn: object
    input_arena: ShmArena
    result_arena: ShmArena
    jobs: int = 0


@dataclass
class PoolStats:
    """Cumulative pool accounting; worker deaths and respawns are
    exported by :class:`~repro.parallel.sut.ParallelSUT` as they stand.
    ``shm_dispatches`` and ``pickle_dispatches`` count shard jobs, one
    per worker a dispatch sends a non-empty shard to, by the transport
    that carried its inputs."""

    bytes_in: int = 0
    bytes_out: int = 0
    shm_dispatches: int = 0
    pickle_dispatches: int = 0
    restarts: int = exported(
        "parallel_worker_restarts_total",
        "Dead workers respawned before a dispatch")
    crashes: int = exported(
        "parallel_worker_crashes_total",
        "Worker deaths observed mid-batch")
    per_worker_jobs: dict = field(default_factory=dict)


def _predictor(factory: Callable, rng: np.random.Generator) -> Callable:
    """Build the worker's predict function, passing the seeded RNG when
    the factory declares a positional parameter for it."""
    import inspect

    wants_rng = False
    try:
        params = inspect.signature(factory).parameters.values()
        wants_rng = any(
            p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            and p.default is p.empty
            for p in params
        )
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        pass
    return factory(rng) if wants_rng else factory()


def _pack_outputs(outputs, result_seg) -> Optional[tuple]:
    """Try to place ``outputs`` in the worker's result arena.

    Returns the reply payload, or ``None`` when the arena is too small
    (the parent grows it and the reply falls back to pickle this once).
    """
    offset = 0

    def write(arr: np.ndarray) -> ArraySpec:
        nonlocal offset
        contig = np.ascontiguousarray(arr).reshape(arr.shape)
        view = np.ndarray(contig.shape, dtype=contig.dtype,
                          buffer=result_seg.buf, offset=offset)
        view[...] = contig
        spec = (offset, contig.dtype.str, tuple(contig.shape))
        offset += (contig.nbytes + 63) // 64 * 64
        return spec

    if isinstance(outputs, np.ndarray):
        if packed_size([outputs]) > result_seg.size:
            return None
        return ("shm-stack", write(outputs))
    arrays = as_arrays(outputs)
    if arrays is not None:
        if packed_size(arrays) > result_seg.size:
            return None
        return ("shm", [write(a) for a in arrays])
    return ("pickle", pickle.dumps(list(outputs), protocol=5), 0)


def _worker_main(index: int, seed: int, restart: int, conn,
                 factory: Callable) -> None:
    """Worker process entry point: seed, build the model, serve jobs.

    ``restart`` is how many times this slot has been respawned.  The
    original worker (restart 0) seeds from ``(seed, index)`` - the
    documented purity contract - while a replacement derives a *fresh*
    stream from ``(seed, index, restart)``: a restarted worker must not
    replay the dead worker's draws, or retried work would silently see
    the same "random" behavior that was in flight when it crashed.
    """
    key = (seed, index) if restart == 0 else (seed, index, restart)
    sequence = np.random.SeedSequence(key)
    np.random.seed(int(sequence.generate_state(1)[0]))
    predict = _predictor(factory, np.random.default_rng(sequence))
    arenas = ArenaCache()
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, job_id, payload, result_name = message
            try:
                if payload[0] == "shm":
                    _, input_name, specs = payload
                    samples = ShmArena.read(arenas.get(input_name), specs)
                else:
                    samples = pickle.loads(payload[1])
                started = time.perf_counter()
                outputs = predict(samples)
                compute = time.perf_counter() - started
                if payload[0] == "shm":
                    reply = _pack_outputs(outputs, arenas.get(result_name))
                    if reply is None:  # arena too small: pickle this once
                        blob = pickle.dumps(list(outputs), protocol=5)
                        reply = ("pickle", blob, _needed_bytes(outputs))
                else:
                    reply = ("pickle",
                             pickle.dumps(list(outputs), protocol=5), 0)
                conn.send(("ok", job_id, reply, compute))
            except Exception:
                conn.send(("err", job_id, traceback.format_exc(limit=8)))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        arenas.close()
        conn.close()


def _needed_bytes(outputs) -> int:
    if isinstance(outputs, np.ndarray):
        return packed_size([outputs])
    arrays = as_arrays(outputs)
    return packed_size(arrays) if arrays is not None else 0


class WorkerPool:
    """N model processes fed through pipes + shared-memory arenas.

    Workers are forked, so ``factory`` may be any closure.  It is
    called once inside each worker --
    optionally with the worker's seeded ``numpy`` Generator if it takes
    a required positional argument -- and must return
    ``predict(samples) -> outputs``.
    """

    def __init__(self, factory: Callable, workers: int, *,
                 seed: int = 0, transport: str = "shm",
                 job_timeout: Optional[float] = None) -> None:
        check_range("workers", workers, AT_LEAST_ONE)
        if job_timeout is not None:
            check_range("job_timeout", job_timeout, POSITIVE)
        if transport not in ("shm", "pickle"):
            raise ValueError(f"unknown transport {transport!r}")
        self._factory = factory
        self.workers = workers
        self.seed = seed
        self.transport = transport
        self.job_timeout = job_timeout
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - e.g. no fork on platform
            self._ctx = multiprocessing.get_context()
        self._members: List[Optional[_Worker]] = [None] * workers
        #: Per-slot respawn count; feeds the replacement worker's
        #: ``SeedSequence((seed, index, restart_count))`` derivation.
        self._restarts: List[int] = [0] * workers
        self._job_ids = iter(range(1, 1 << 62))
        self.stats = PoolStats()
        self._started = False

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.workers):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        # Arenas are created *before* the fork so the parent's resource
        # tracker is already running and gets inherited: a worker that
        # started its own tracker would unlink parent-owned segments on
        # exit (see repro.parallel.shm.attach).
        old = self._members[index]
        input_arena = (old.input_arena if old
                       else ShmArena(f"in{index}-{id(self)}"))
        result_arena = (old.result_arena if old
                        else ShmArena(f"out{index}-{id(self)}"))
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.seed, self._restarts[index], child_conn,
                  self._factory),
            name=f"repro-parallel-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._members[index] = _Worker(
            index=index,
            process=process,
            conn=parent_conn,
            input_arena=input_arena,
            result_arena=result_arena,
        )

    def ensure_alive(self) -> int:
        """Respawn any dead worker; returns how many were restarted."""
        if not self._started:
            self.start()
            return 0
        restarted = 0
        for index, member in enumerate(self._members):
            if member is None or not member.process.is_alive():
                if member is not None:
                    member.conn.close()
                    member.process.join(timeout=1.0)
                self._restarts[index] += 1
                self._spawn(index)
                restarted += 1
        self.stats.restarts += restarted
        return restarted

    def kill_worker(self, index: int) -> None:
        """SIGKILL a worker (fault injection / crash tests)."""
        member = self._members[index % self.workers]
        if member is not None and member.process.is_alive():
            member.process.kill()
            member.process.join(timeout=2.0)

    def close(self) -> None:
        for member in self._members:
            if member is None:
                continue
            try:
                if member.process.is_alive():
                    member.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for member in self._members:
            if member is None:
                continue
            member.process.join(timeout=2.0)
            if member.process.is_alive():  # pragma: no cover - stuck worker
                member.process.kill()
                member.process.join(timeout=2.0)
            member.conn.close()
            member.input_arena.close()
            member.result_arena.close()
        self._members = [None] * self.workers
        # A deliberately closed-and-reopened pool is a fresh run, not a
        # crash recovery: the (seed, index) purity contract applies again.
        self._restarts = [0] * self.workers
        self._started = False

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch -----------------------------------------------------

    def run_shards(self, shards: Sequence[Sequence[object]],
                   ) -> List[ShardOutcome]:
        """Run ``shards[i]`` on worker ``i``; outcomes in shard order.

        Empty shards are skipped without touching their worker.  Raises
        :class:`WorkerCrashed` if any involved worker dies or exceeds
        ``job_timeout``; callers decide whether that fails the batch or
        feeds a retry wrapper.
        """
        if len(shards) > self.workers:
            raise ValueError(
                f"{len(shards)} shards for {self.workers} workers")
        if not self._started:
            self.start()
        job_id = next(self._job_ids)
        sent: List[Optional[int]] = []  # bytes_in per shard, None=skipped
        for index, shard in enumerate(shards):
            if not shard:
                sent.append(None)
                continue
            sent.append(self._send_job(index, job_id, shard))
        outcomes: List[ShardOutcome] = []
        for index, shard in enumerate(shards):
            if sent[index] is None:
                outcomes.append(ShardOutcome(outputs=[]))
                continue
            outcome = self._collect(index, job_id, len(shard))
            outcome.bytes_in = sent[index]
            outcomes.append(outcome)
        return outcomes

    def _send_job(self, index: int, job_id: int,
                  shard: Sequence[object]) -> int:
        member = self._members[index]
        if member is None or not member.process.is_alive():
            self._reap(index)
            raise WorkerCrashed(index, "dead before dispatch")
        arrays = as_arrays(shard) if self.transport == "shm" else None
        if arrays is not None:
            specs = member.input_arena.write(arrays)
            payload = ("shm", member.input_arena.name, specs)
            bytes_in = packed_size(arrays)
            # Presize the result arena pessimistically: model outputs
            # rarely exceed their inputs, so overflow pickles are rare.
            member.result_arena.ensure(max(bytes_in, 1 << 12))
            self.stats.shm_dispatches += 1
        else:
            blob = pickle.dumps(list(shard), protocol=5)
            payload = ("pickle", blob)
            bytes_in = len(blob)
            self.stats.pickle_dispatches += 1
        try:
            member.conn.send(("job", job_id, payload,
                              member.result_arena.name))
        except (BrokenPipeError, OSError) as exc:
            self._reap(index)
            raise WorkerCrashed(index, f"pipe broke on send: {exc}")
        member.jobs += 1
        self.stats.bytes_in += bytes_in
        self.stats.per_worker_jobs[index] = (
            self.stats.per_worker_jobs.get(index, 0) + 1)
        return bytes_in

    def _collect(self, index: int, job_id: int,
                 shard_len: int) -> ShardOutcome:
        member = self._members[index]
        assert member is not None
        deadline = (time.monotonic() + self.job_timeout
                    if self.job_timeout is not None else None)
        while True:
            try:
                ready = member.conn.poll(_POLL)
            except (BrokenPipeError, OSError):
                ready = False
            if ready:
                try:
                    message = member.conn.recv()
                except (EOFError, OSError) as exc:
                    self._reap(index)
                    raise WorkerCrashed(index, f"pipe closed: {exc}")
                kind = message[0]
                if message[1] != job_id:
                    continue  # stale reply from before a crash-retry
                if kind == "err":
                    raise WorkerCrashed(index, message[2])
                return self._decode(member, message, shard_len)
            if not member.process.is_alive():
                self._reap(index)
                raise WorkerCrashed(
                    index,
                    f"exit code {member.process.exitcode} mid-batch")
            if deadline is not None and time.monotonic() > deadline:
                member.process.kill()
                self._reap(index)
                raise WorkerCrashed(
                    index, f"job timeout after {self.job_timeout}s")

    def _decode(self, member: _Worker, message, shard_len: int,
                ) -> ShardOutcome:
        _, _, reply, compute = message
        if reply[0] == "shm-stack":
            stacked = member.result_arena.read_own([reply[1]])[0]
            outputs = list(stacked)
            bytes_out = packed_size([stacked])
        elif reply[0] == "shm":
            outputs = member.result_arena.read_own(reply[1])
            bytes_out = sum((a.nbytes + 63) // 64 * 64 for a in outputs)
        else:
            outputs = pickle.loads(reply[1])
            bytes_out = len(reply[1])
            if reply[2]:  # result arena overflowed: grow for next time
                member.result_arena.ensure(reply[2])
        if len(outputs) != shard_len:
            raise WorkerCrashed(
                member.index,
                f"returned {len(outputs)} outputs for {shard_len} samples")
        self.stats.bytes_out += bytes_out
        return ShardOutcome(outputs=outputs, compute_seconds=compute,
                            bytes_out=bytes_out,
                            via_shm=reply[0] != "pickle")

    def _reap(self, index: int) -> None:
        member = self._members[index]
        if member is None:
            return
        self.stats.crashes += 1
        try:
            member.conn.close()
        except OSError:  # pragma: no cover
            pass
        member.process.join(timeout=1.0)


def shard_evenly(samples: Sequence[object], shards: int,
                 ) -> List[List[object]]:
    """Split ``samples`` into ``shards`` contiguous, near-even parts.

    Contiguity keeps the recombination order a pure function of the
    sample order -- the determinism guarantee leans on this.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    total = len(samples)
    out: List[List[object]] = []
    start = 0
    for i in range(shards):
        size = total // shards + (1 if i < total % shards else 0)
        out.append(list(samples[start:start + size]))
        start += size
    return out
