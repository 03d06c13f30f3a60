"""Corpus BLEU (the machine-translation quality metric).

Implements the BLEU score of Papineni et al. as standardized by
SacreBLEU (Post 2018), which is what Table I's "23.9 SacreBLEU" refers
to: corpus-level modified n-gram precisions up to 4-grams, geometric
mean, multiplied by the brevity penalty.  Operates on token-id sequences
(our synthetic language has no tokenization ambiguity, which is the
problem SacreBLEU exists to solve for real text).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

MAX_NGRAM_ORDER = 4


def _ngram_counts(tokens: Sequence, order: int) -> Counter:
    return Counter(
        tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1)
    )


def corpus_bleu(
    hypotheses: Sequence[Sequence],
    references: Sequence[Sequence],
) -> float:
    """Corpus BLEU in [0, 100], up to ``MAX_NGRAM_ORDER``-grams.

    A zero n-gram match count gets exponential smoothing in the
    SacreBLEU style: the k-th such order scores ``1 / (2^k * total)``.
    Every order is smoothed, so a corpus with no match at all scores
    above 0.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses but {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")

    matches = [0] * MAX_NGRAM_ORDER
    totals = [0] * MAX_NGRAM_ORDER
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_length += len(hyp)
        ref_length += len(ref)
        for order in range(1, MAX_NGRAM_ORDER + 1):
            hyp_counts = _ngram_counts(hyp, order)
            ref_counts = _ngram_counts(ref, order)
            totals[order - 1] += max(len(hyp) - order + 1, 0)
            matches[order - 1] += sum(
                min(count, ref_counts[gram])
                for gram, count in hyp_counts.items()
            )

    log_precision_sum = 0.0
    smooth_value = 1.0
    for order in range(MAX_NGRAM_ORDER):
        if totals[order] == 0:
            # Hypotheses shorter than the order: skip, as SacreBLEU does
            # by effectively contributing nothing scoreable.
            return 0.0
        if matches[order] > 0:
            precision = matches[order] / totals[order]
        else:
            smooth_value *= 2.0
            precision = 1.0 / (smooth_value * totals[order])
        log_precision_sum += math.log(precision)

    geo_mean = math.exp(log_precision_sum / MAX_NGRAM_ORDER)
    if hyp_length > ref_length:
        brevity_penalty = 1.0
    elif hyp_length == 0:
        return 0.0
    else:
        brevity_penalty = math.exp(1.0 - ref_length / hyp_length)
    return 100.0 * brevity_penalty * geo_mean
