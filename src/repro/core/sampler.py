"""Deterministic query-sample selection (paper Sections IV-B and V-B).

The LoadGen "produces queries by randomly selecting query samples with
replacement from the data set"; the pattern is fully determined by the
PRNG seed, which is why optimizations keyed to the official seed are
prohibited and why the alternate-random-seed audit test exists.

In accuracy mode the LoadGen instead walks the entire data set exactly
once so the accuracy script can evaluate the full benchmark data set.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .query import Query, new_sample

#: How many values the seeded streams on the issue path (sample picks
#: here, arrival gaps in ``scenarios.ArrivalGaps``) draw from numpy at a
#: time.  A ``Generator`` yields the same values however a request is
#: split into calls, so this length changes no result - only how often
#: numpy is entered (one ``integers(size=1)`` costs ~11 calls and ~3 us).
DRAW_BLOCK = 1024


class SampleSelector:
    """Draws sample indices from the loaded performance set.

    Performance mode draws uniformly *with replacement* - duplicate
    indices are expected and the caching-detection audit relies on them.

    Picks are drawn :data:`DRAW_BLOCK` at a time and already mapped
    through the loaded set; :meth:`draw` slices the block.  A draw that
    outruns the block takes what is left of it first and then draws the
    rest, so any mix of counts (Server's 1, MultiStream's N, Offline's
    24,576) sees the one sequence ``integers(0, n, size=total)`` would
    give - ``tests/core/test_sampler.py`` holds the property.
    """

    def __init__(self, loaded_indices: Sequence[int], seed: int) -> None:
        if len(loaded_indices) == 0:
            raise ValueError("loaded_indices must not be empty")
        self._indices = np.asarray(loaded_indices, dtype=np.int64)
        self._rng = np.random.default_rng(seed)
        #: Drawn but not yet handed out: ``_block[_pos:]``.  A block is
        #: either empty (``_pos`` parked at the end) or full length, so
        #: the hot path compares against the constant.
        self._block: List[int] = []
        self._pos = DRAW_BLOCK

    def _take(self, count: int) -> List[int]:
        picks = self._rng.integers(0, len(self._indices), size=count)
        return self._indices[picks].tolist()

    def draw(self, count: int) -> List[int]:
        """Draw ``count`` indices with replacement."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        start = self._pos
        end = start + count
        if end <= DRAW_BLOCK:
            self._pos = end
            return self._block[start:end]
        drawn = self._block[start:]
        rest = count - len(drawn)
        if rest >= DRAW_BLOCK:
            # A bulk draw: exactly what it needs, nothing drawn ahead.
            drawn += self._take(rest)
            self._block, self._pos = [], DRAW_BLOCK
        else:
            self._block = self._take(DRAW_BLOCK)
            drawn += self._block[:rest]
            self._pos = rest
        return drawn


class QueryFactory:
    """Assembles :class:`Query` objects with unique query and sample ids.

    Sample ids are unique per issued sample instance (two draws of data
    set index 7 get different ids), mirroring the real LoadGen's
    ``QuerySampleId`` semantics.  Indices are stored as given: every
    :class:`~repro.core.scenarios.SampleSource` yields Python ints.
    """

    def __init__(self) -> None:
        self._next_query_id = 1
        self._next_sample_id = 1

    def make_query(self, sample_indices: Sequence[int], issue_time: float = 0.0) -> Query:
        query_id = self._next_query_id
        self._next_query_id = query_id + 1
        first = self._next_sample_id
        self._next_sample_id = end = first + len(sample_indices)
        samples = tuple(
            map(new_sample, zip(range(first, end), sample_indices)))
        return Query(query_id, samples, issue_time)


def accuracy_mode_indices(total_sample_count: int) -> List[int]:
    """Accuracy mode visits every data set sample exactly once."""
    if total_sample_count < 1:
        raise ValueError("data set is empty")
    return list(range(total_sample_count))
