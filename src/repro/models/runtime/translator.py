"""Runnable translator for the synthetic WMT task.

An attention-based encoder-decoder executed by the numpy kernels, with
*constructed* weights that solve the cipher-with-reversal language pair:

* token embeddings are one-hot (an identity embedding table), so encoder
  outputs carry token identity exactly;
* attention is genuine scaled dot-product attention between learned
  position codes: the decoder's query at output step ``t`` matches the
  key planted at source position ``L - 1 - t``, producing the reversed
  alignment GNMT's attention would have to learn;
* the output projection is the cipher permutation matrix over the
  vocabulary.

Quantization perturbs the embedding table, position codes, and
projection exactly as it would a trained model's weights, degrading
BLEU mechanistically.  (DESIGN.md records the substitution: the paper's
GNMT uses LSTM stacks, which our :class:`~repro.models.graph.LSTMLayer`
accounts for in Table I, but constructing exact cipher behaviour
through saturating LSTM gates is not tractable; the
attention transducer preserves the benchmark-relevant properties -
sequence-length-dependent cost and weight-sensitivity of quality.)
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ...datasets.wmt import SyntheticWmt
from ..graph import Dense, Embedding
from ..layers import softmax
from ..quantization import QuantizationSpec, quantize_layer

#: Default maximum source length the position codes cover.
MAX_POSITIONS = 64


class CipherTranslator:
    """Attention transducer translating token-id sequences."""

    def __init__(
        self,
        embedding: Embedding,
        projection: Dense,
        position_codes: np.ndarray,
        sharpness: float,
    ) -> None:
        self.embedding = embedding
        self.projection = projection
        self.position_codes = position_codes
        self.sharpness = sharpness

    @property
    def name(self) -> str:
        return "cipher-translator"

    def translate(self, source: Sequence[int]) -> List[int]:
        """Greedy-decode the translation of ``source``."""
        source = list(source)
        if not source:
            return []
        length = len(source)
        if length > self.position_codes.shape[0]:
            raise ValueError(
                f"source length {length} exceeds the {self.position_codes.shape[0]} "
                "supported positions"
            )
        # Encode: one-hot token vectors (N, V).
        memory = self.embedding.forward(np.asarray(source))
        # Keys: position codes planted in reversed order.
        keys = self.position_codes[length - 1::-1]          # (L, D)
        output: List[int] = []
        for step in range(length):
            query = self.position_codes[step]               # (D,)
            scores = keys @ query * self.sharpness          # (L,)
            weights = softmax(scores[None, :], axis=-1)[0]
            context = weights @ memory                      # (V,)
            logits = self.projection.forward(context[None, :])[0]
            output.append(int(np.argmax(logits)))
        return output

    def quantized(self, spec: QuantizationSpec) -> "CipherTranslator":
        """Return a fake-quantized deep copy (the original is untouched)."""
        clone = copy.deepcopy(self)
        quantize_layer(clone.embedding, spec)
        quantize_layer(clone.projection, spec)
        from ..quantization import quantize_tensor
        clone.position_codes = quantize_tensor(clone.position_codes, spec)
        return clone


def build_cipher_translator(
    dataset: SyntheticWmt,
    position_dim: int = 6,
    sharpness: float = 3.0,
    synonym_weight: float = 0.75,
    max_positions: int = MAX_POSITIONS,
    seed: int = 7,
) -> CipherTranslator:
    """Construct the reference translator for ``dataset``.

    The defaults are tuned so the FP32 model sits just under the ideal
    cipher BLEU while INT8/FP16/FP11 keep >= 99% of it and INT4 dips
    marginally below - the same gradient the paper reports for real
    models (Section III-B: ~1% at INT8 "easily achievable without
    retraining"; 4-bit needed open-division freedom).  ``synonym_weight``
    plants a near-tie runner-up logit per token; soft attention plus
    that tie is what makes precision matter.
    """
    vocab = dataset.vocab_size
    embedding = Embedding(vocab, vocab, name="onehot_emb")
    embedding.initialize((), np.random.default_rng(seed))
    embedding.set_parameter("table", np.eye(vocab, dtype=np.float32))

    projection = Dense(vocab, use_bias=False, name="cipher_proj")
    projection.initialize((vocab,), np.random.default_rng(seed))
    cipher_matrix = np.zeros((vocab, vocab), dtype=np.float32)
    for source_token, target_token in dataset.cipher.items():
        cipher_matrix[source_token, target_token] = 1.0
    for source_token, synonym_token in dataset.synonyms.items():
        cipher_matrix[source_token, synonym_token] = max(
            cipher_matrix[source_token, synonym_token], synonym_weight
        )
    projection.set_parameter("weights", cipher_matrix)

    rng = np.random.default_rng(seed)
    codes = rng.normal(0.0, 1.0, size=(max_positions, position_dim))
    codes /= np.linalg.norm(codes, axis=1, keepdims=True)
    return CipherTranslator(
        embedding, projection, codes.astype(np.float32), sharpness
    )


def evaluate_translator(
    model: CipherTranslator,
    dataset: SyntheticWmt,
    indices: Optional[Iterable[int]] = None,
) -> float:
    """Corpus BLEU of ``model`` over ``dataset``."""
    from ...accuracy.bleu import corpus_bleu

    if indices is None:
        indices = dataset.evaluation_indices
    indices = list(indices)
    hypotheses = [model.translate(dataset.get_sample(i)) for i in indices]
    references = [dataset.get_label(i) for i in indices]
    return corpus_bleu(hypotheses, references)
