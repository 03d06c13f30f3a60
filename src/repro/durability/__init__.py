"""Durable runs: crash-safe journaling, resume, and self-healing serving.

This package makes a LoadGen run survive the failures a production
serving stack actually sees:

* ``journal`` — a CRC-framed, append-only write-ahead journal of every
  query lifecycle event plus periodic checkpoints, with a configurable
  fsync policy (:class:`FsyncPolicy`) and torn-tail-tolerant reader;
* ``resume`` — :func:`resume_run` replays a journal and deterministically
  continues an interrupted run to the same ``LoadGenResult`` as an
  uninterrupted one (:func:`run_fingerprint` is the equality witness);
* ``breaker`` / ``healing`` — a :class:`CircuitBreaker` state machine
  and the :class:`SelfHealingSUT` serving wrapper (load shedding, hedged
  retries against a standby, immediate failover) that keep a run alive
  through backend outages.

``docs/durability.md`` documents the journal format, fsync semantics,
resume guarantees, and the breaker state machine.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "breaker": (
        "STATE_CODES", "BreakerPolicy", "BreakerState", "BreakerStats",
        "CircuitBreaker",
    ),
    "healing": ("HealingStats", "SelfHealingSUT"),
    "journal": (
        "JOURNAL_VERSION", "MAGIC", "FsyncPolicy", "JournalError",
        "JournalState", "JournalStats", "JournalWriter", "ResumeError",
        "RunJournal", "read_frames", "read_run_journal",
    ),
    "resume": ("ReplayStats", "ReplaySUT", "resume_run", "run_fingerprint"),
})
