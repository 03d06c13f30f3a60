"""Shared-memory tensor transport for the process-parallel backend.

Shipping query samples to worker processes through a pickle round-trip
copies every tensor twice (serialize, deserialize) and burns the issue
thread on encoding.  The paper's Offline scenario is explicitly a
throughput contest (MLPerf Inference, Reddi et al., ISCA 2020, SIII-C),
so the hot path here writes numpy arrays straight into a
``multiprocessing.shared_memory`` block and sends only a tiny
descriptor -- ``(offset, dtype, shape)`` per array -- over the control
pipe.  Workers map the same block and read the tensors zero-copy.

Arenas grow geometrically and are reused across dispatches, so the
steady state does no allocation at all.  The parent process owns every
segment (creation and unlinking); workers only ever attach, which keeps
cleanup single-owner and leak-free even when a worker is killed
mid-batch.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Byte alignment for packed arrays; cache-line sized so a worker's
#: reads never straddle a neighbouring tensor's tail.
_ALIGN = 64
#: Bytes an arena starts with; it doubles from there as batches need.
_INITIAL_CAPACITY = 1 << 16

#: ``(offset, dtype-str, shape)`` -- everything a reader needs to map
#: one packed array out of an arena.
ArraySpec = Tuple[int, str, Tuple[int, ...]]


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def packed_size(arrays: Sequence[np.ndarray]) -> int:
    """Bytes required to pack ``arrays`` back to back with alignment."""
    return sum(_aligned(a.nbytes) for a in arrays)


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    Workers are forked after the parent's resource tracker is running,
    so parent and children share one tracker whose name cache is a set:
    the child's attach-time register (gh-82300) is a no-op duplicate
    and the parent's single ``unlink`` retires the name exactly once.
    """
    return shared_memory.SharedMemory(name=name)


class ShmArena:
    """A growable shared-memory block owned by the creating process.

    ``write`` packs a list of arrays and returns their specs; ``read``
    maps specs back into (copied) arrays.  Growth replaces the segment
    with a fresh, larger one under a new name -- readers learn the new
    name from the next job descriptor, so no coordination is needed.
    """

    def __init__(self, tag: str) -> None:
        self._tag = tag
        self._serial = 0
        self._seg = shared_memory.SharedMemory(
            create=True, size=_INITIAL_CAPACITY,
            name=self._next_name())
        self.grown = 0  #: number of grow-by-recreate events (observability)

    def _next_name(self) -> str:
        self._serial += 1
        return f"repro-{self._tag}-{self._serial}"

    @property
    def name(self) -> str:
        return self._seg.name

    def ensure(self, nbytes: int) -> None:
        """Grow (by recreation) until at least ``nbytes`` fit."""
        if nbytes <= self._seg.size:
            return
        size = self._seg.size
        while size < nbytes:
            size *= 2
        old = self._seg
        self._seg = shared_memory.SharedMemory(
            create=True, size=size, name=self._next_name())
        self.grown += 1
        old.close()
        old.unlink()

    def write(self, arrays: Sequence[np.ndarray]) -> List[ArraySpec]:
        """Pack ``arrays`` into the arena, growing it if needed."""
        self.ensure(packed_size(arrays))
        specs: List[ArraySpec] = []
        offset = 0
        buf = self._seg.buf
        for arr in arrays:
            # ascontiguousarray promotes 0-d to 1-d; keep the true shape.
            contig = np.ascontiguousarray(arr).reshape(arr.shape)
            view = np.ndarray(
                contig.shape, dtype=contig.dtype, buffer=buf, offset=offset)
            view[...] = contig
            specs.append((offset, contig.dtype.str, tuple(contig.shape)))
            offset += _aligned(contig.nbytes)
        return specs

    @staticmethod
    def read(seg: shared_memory.SharedMemory,
             specs: Sequence[ArraySpec]) -> List[np.ndarray]:
        """Copy the described arrays out of ``seg``.

        The copy is deliberate: the arena is reused for the next
        dispatch, so borrowed views would be silently overwritten.
        """
        out = []
        for offset, dtype, shape in specs:
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=seg.buf, offset=offset)
            out.append(np.array(view, copy=True))
        return out

    def read_own(self, specs: Sequence[ArraySpec]) -> List[np.ndarray]:
        """``read`` against this arena's own segment."""
        return self.read(self._seg, specs)

    def close(self) -> None:
        """Detach and unlink: the parent owns the segment."""
        self._seg.close()
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class ArenaCache:
    """Name-keyed cache of attached segments (worker side).

    A worker sees a new arena name only when the parent grew the block;
    stale attachments are dropped eagerly because at most one input and
    one output arena are live per worker.
    """

    def __init__(self) -> None:
        self._segs: dict = {}

    def get(self, name: str) -> shared_memory.SharedMemory:
        seg = self._segs.get(name)
        if seg is None:
            # Drop stale segments: a new name supersedes the old block.
            self.close()
            seg = attach(name)
            self._segs[name] = seg
        return seg

    def close(self) -> None:
        for seg in self._segs.values():
            seg.close()
        self._segs.clear()


def as_arrays(samples: Sequence[object]) -> Optional[List[np.ndarray]]:
    """The samples as numpy arrays if *all* of them are, else ``None``.

    Mixed batches fall back to pickle transport; the benchmark
    quantifies exactly what that fallback costs.
    """
    if not samples:
        return None
    if all(isinstance(s, np.ndarray) for s in samples):
        return list(samples)  # type: ignore[arg-type]
    return None
