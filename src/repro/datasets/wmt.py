"""SyntheticWmt: the offline stand-in for WMT16 EN-DE.

The synthetic "language pair" is a token-substitution cipher with word
reordering: the target sentence is the source sentence mapped token-wise
through a fixed bijection and written in reverse order.  Reversal makes
the alignment non-monotonic, so a translator must attend to the right
source position - the same property that motivated attention in GNMT.

A fraction of target tokens is replaced by a "synonym" (a second valid
mapping) during generation.  A deterministic model cannot predict which
synonym a reference uses, so even the FP32 reference model's corpus BLEU
sits below 100 - leaving the quantization experiments real headroom,
just as real translation models never reach the reference BLEU ceiling.
"""

from __future__ import annotations

from math import inf
from typing import List, Tuple

import numpy as np

from ..bounds import Interval, check_range
from .base import Dataset

#: The lowest word id; 0-2 are reserved for special tokens.
FIRST_WORD_ID = 3
#: A vocabulary holds the special tokens and at least two words.
_VOCAB_SIZE = Interval(FIRST_WORD_ID + 2, inf, True, False,
                       f">= {FIRST_WORD_ID + 2}")


class SyntheticWmt(Dataset):
    """Cipher-translation data set of ``(source, reference)`` pairs."""

    def __init__(
        self,
        size: int = 1_000,
        vocab_size: int = 64,
        min_length: int = 4,
        max_length: int = 12,
        synonym_rate: float = 0.1,
        calibration_count: int = 32,
        seed: int = 2016,
    ) -> None:
        check_range("vocab_size", vocab_size, _VOCAB_SIZE)
        if not 1 <= min_length <= max_length:
            raise ValueError("need 1 <= min_length <= max_length")
        self.name = "synthetic-wmt"
        self._size = size
        self.vocab_size = vocab_size
        self.min_length = min_length
        self.max_length = max_length
        self.synonym_rate = synonym_rate
        self.calibration_count = calibration_count
        self._seed = seed

        rng = np.random.default_rng(seed)
        word_ids = np.arange(FIRST_WORD_ID, vocab_size)
        # The primary cipher: a fixed bijection over the word ids.
        shuffled = word_ids.copy()
        rng.shuffle(shuffled)
        self.cipher = dict(zip(word_ids.tolist(), shuffled.tolist()))
        # Each word also has one synonym (another word's primary image),
        # used stochastically in the references.
        rolled = np.roll(shuffled, 1)
        self.synonyms = dict(zip(word_ids.tolist(), rolled.tolist()))

    def __len__(self) -> int:
        return self._size

    def _rng_for(self, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self._seed, index))
        )

    def _generate(self, index: int) -> Tuple[List[int], List[int]]:
        rng = self._rng_for(index)
        length = int(rng.integers(self.min_length, self.max_length + 1))
        source = rng.integers(
            FIRST_WORD_ID, self.vocab_size, size=length
        ).tolist()
        target = []
        for token in reversed(source):
            if rng.random() < self.synonym_rate:
                target.append(self.synonyms[token])
            else:
                target.append(self.cipher[token])
        return [int(t) for t in source], [int(t) for t in target]

    def get_sample(self, index: int) -> List[int]:
        """The source sentence (list of token ids, no specials)."""
        self._check_index(index)
        source, _target = self._generate(index)
        return source

    def get_label(self, index: int) -> List[int]:
        """The reference translation (list of token ids)."""
        self._check_index(index)
        _source, target = self._generate(index)
        return target

    def ideal_translation(self, source: List[int]) -> List[int]:
        """The noiseless cipher output (what a perfect model produces)."""
        return [self.cipher[token] for token in reversed(source)]
