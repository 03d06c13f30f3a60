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
from typing import NamedTuple, Optional, Tuple

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

    @property
    def duration(self) -> float:
        """Offset of the final chunk."""
        return self.chunks[-1].offset


@dataclass(frozen=True)
class StreamModel:
    """Distribution of stream shapes, deterministic per query.

    ``first_token_delay`` models the gap between the answer being ready
    and the first chunk leaving (prefill-to-decode handoff);
    ``inter_token_delay`` is the per-token decode interval.  Jitter
    fields add a seeded uniform ``±jitter`` perturbation per event,
    clamped so offsets never go backwards.  Token counts are drawn
    uniformly from ``[min_tokens, max_tokens]``; chunks carry
    ``tokens_per_chunk`` tokens (the final chunk takes the remainder),
    mirroring streaming APIs that batch several tokens per flush.
    """

    first_token_delay: float = 0.002
    inter_token_delay: float = 0.0005
    min_tokens: int = 8
    max_tokens: int = 32
    tokens_per_chunk: int = 1
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_range("first_token_delay", self.first_token_delay, NON_NEGATIVE)
        check_range("inter_token_delay", self.inter_token_delay, NON_NEGATIVE)
        check_range("min_tokens", self.min_tokens, AT_LEAST_ONE)
        if self.max_tokens < self.min_tokens:
            raise ValueError(
                f"max_tokens must be >= min_tokens, got {self.max_tokens}"
            )
        check_range("tokens_per_chunk", self.tokens_per_chunk, AT_LEAST_ONE)
        check_range("jitter", self.jitter, NON_NEGATIVE)

    def plan(self, query_id: int) -> StreamPlan:
        """The deterministic stream shape for one query."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, query_id, _STREAM_TAG))
        )
        tokens = int(rng.integers(self.min_tokens, self.max_tokens + 1))
        if self.jitter > 0.0:
            return _build_plan(
                self.first_token_delay, self.inter_token_delay,
                self.tokens_per_chunk, tokens, self.jitter, rng)
        return _jitter_free_plan(
            self.first_token_delay, self.inter_token_delay,
            self.tokens_per_chunk, tokens)


def _build_plan(first_token_delay: float, inter_token_delay: float,
                per_chunk: int, tokens: int, jitter: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> StreamPlan:
    """Lay ``tokens`` out as chunks; with ``jitter``, one uniform draw
    from ``rng`` per chunk, in chunk order."""
    chunks = []
    offset = 0.0
    emitted = 0
    delay = first_token_delay
    while emitted < tokens:
        count = tokens - emitted
        if count > per_chunk:
            count = per_chunk
        if emitted:  # every chunk after the first
            delay = inter_token_delay * count
        if jitter > 0.0:
            delay += float(rng.uniform(-jitter, jitter))
        if delay > 0.0:  # clamped: offsets never go backwards
            offset += delay
        emitted += count
        # A ChunkEvent without its generated __new__'s Python frame.
        chunks.append(tuple.__new__(
            ChunkEvent, (offset, count, emitted >= tokens)))
    return StreamPlan(token_count=tokens, chunks=tuple(chunks))


#: Without jitter a plan is a pure function of these four numbers, and a
#: model draws at most ``max_tokens - min_tokens + 1`` token counts, so
#: the built plans (immutable tuples, safe to share) are kept.  Keyed by
#: value *and* type, at module level: models stay plain frozen values,
#: and two that differ in any of the four share nothing.
_jitter_free_plan = functools.lru_cache(maxsize=1024, typed=True)(_build_plan)
