"""Process-parallel execution backend (ROADMAP: sharding/batching).

The LoadGen never learns how many processes did the arithmetic: this
package implements the submitter side of the paper's Fig. 3 boundary
as a pool of worker processes fed through shared memory, behind the
same ``SystemUnderTest`` protocol every other backend speaks.

* :mod:`repro.parallel.shm` -- growable shared-memory arenas; tensors
  move as ``(offset, dtype, shape)`` descriptors, never pickles.
* :mod:`repro.parallel.pool` -- the worker processes: deterministic
  seeding, crash detection, respawn, transfer accounting.
* :mod:`repro.parallel.sut` -- :class:`ParallelSUT`, tying the above
  behind ``issue_query`` with ``parallel_*`` telemetry: each query it
  is issued is one dispatch across the pool.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "pool": (
        "PoolStats", "ShardOutcome", "WorkerCrashed", "WorkerPool",
        "shard_evenly",
    ),
    "shm": ("ShmArena",),
    "sut": ("ParallelSUT",),
})
