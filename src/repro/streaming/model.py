"""Seeded per-query stream shapes: how many tokens, in which chunks, when.

The model is a pure function of ``(model seed, query id)``: a
:class:`StreamModel` asked twice for the same query returns the same
:class:`StreamPlan`, which is what makes a virtual-clock streaming run
bit-identical across reruns and lets tests predict exact chunk timings.
Draws use a dedicated ``SeedSequence`` domain tag so stream shapes are
independent of every other seeded subsystem (arrival times, loaded-set
choice, fault plans).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, check_range

#: SeedSequence domain tag for stream-shape draws.
_STREAM_TAG = 0x57EA4


class ChunkEvent(NamedTuple):
    """One planned chunk: emission offset from the stream's start."""

    #: Seconds after the stream starts (the inner answer being ready).
    offset: float
    #: Output tokens this chunk carries.
    token_count: int
    #: True on the stream's final chunk.
    last: bool


class StreamPlan(NamedTuple):
    """The full planned stream for one query."""

    token_count: int
    chunks: Tuple[ChunkEvent, ...]


@dataclass(frozen=True)
class StreamModel:
    """Distribution of stream shapes, deterministic per query.

    ``first_token_delay`` models the gap between the answer being ready
    and the first chunk leaving (prefill-to-decode handoff);
    ``inter_token_delay`` is the per-token decode interval.  Token
    counts are drawn uniformly from ``[min_tokens, max_tokens]``; each
    chunk carries one token.
    """

    first_token_delay: float = 0.002
    inter_token_delay: float = 0.0005
    min_tokens: int = 8
    max_tokens: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("first_token_delay", self.first_token_delay, NON_NEGATIVE)
        check_range("inter_token_delay", self.inter_token_delay, NON_NEGATIVE)
        check_range("min_tokens", self.min_tokens, AT_LEAST_ONE)
        if self.max_tokens < self.min_tokens:
            raise ValueError(
                f"max_tokens must be >= min_tokens, got {self.max_tokens}"
            )

    def plan(self, query_id: int) -> StreamPlan:
        """The deterministic stream shape for one query."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, query_id, _STREAM_TAG))
        )
        tokens = int(rng.integers(self.min_tokens, self.max_tokens + 1))
        return _plan(self.first_token_delay, self.inter_token_delay, tokens)


@functools.lru_cache(maxsize=1024, typed=True)
def _plan(first_token_delay: float, inter_token_delay: float,
          tokens: int) -> StreamPlan:
    """Lay ``tokens`` out as one-token chunks.

    A plan is a pure function of these three numbers, and a model draws
    at most ``max_tokens - min_tokens + 1`` token counts, so the built
    plans (immutable tuples, safe to share) are kept.  Keyed by value
    *and* type, at module level: models stay plain frozen values, and
    two that differ in any of the three share nothing.
    """
    chunks = []
    offset = 0.0
    delay = first_token_delay
    for emitted in range(1, tokens + 1):
        if delay > 0.0:
            offset += delay
        # A ChunkEvent without its generated __new__'s Python frame.
        chunks.append(tuple.__new__(
            ChunkEvent, (offset, 1, emitted >= tokens)))
        delay = inter_token_delay
    return StreamPlan(token_count=tokens, chunks=tuple(chunks))


@functools.lru_cache(maxsize=1024, typed=True)
def _chunk_tails(first_token_delay: float, inter_token_delay: float,
                 tokens: int) -> Tuple[tuple, ...]:
    """The plan ``_plan`` gives for these three numbers, as the fields
    of its stream's chunks after the query id: ``(seq, token_count,
    last, None)`` per chunk.  ``StreamingSUT`` puts a query's id in
    front of each to build the stream's chunks in C.  Cached beside
    ``_plan`` and keyed the same way, for the same reason.
    """
    chunks = _plan(first_token_delay, inter_token_delay, tokens).chunks
    return tuple((seq, token_count, last, None)
                 for seq, (_, token_count, last) in enumerate(chunks))
