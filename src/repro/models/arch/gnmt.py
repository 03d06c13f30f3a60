"""GNMT architecture definition (Wu et al. 2016, MLPerf v0.5 variant).

The MLPerf translation reference is the GNMT-v2 style model used by the
training benchmark: a 4-layer LSTM encoder whose first layer is
bidirectional, a 4-layer LSTM decoder with residual connections from the
second layer up, additive (Bahdanau) attention computed from the first
decoder layer and fed to the subsequent layers, separate source/target
embeddings, and a full-vocabulary softmax projection.

With hidden size 1024 and the WMT16 EN-DE BPE vocabulary (36,548
entries) the parameter count lands on Table I's 210 M figure (to within
a few percent; the test suite pins the tolerance).

Unlike CNNs, per-input cost depends on sequence length, so ``macs``
takes source/target lengths; the registry quotes the cost at the WMT16
average of ~26 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...bounds import AT_LEAST_TWO, check_range
from ..graph import Dense, Embedding, LSTMLayer

#: WMT16 EN-DE BPE-32k vocabulary size used by the MLPerf reference.
GNMT_VOCAB_SIZE = 36_548

GNMT_HIDDEN = 1024
GNMT_ENCODER_LAYERS = 4
GNMT_DECODER_LAYERS = 4

#: Average sentence length (tokens) of the WMT16 EN-DE evaluation set;
#: used to quote a per-input operation count.
WMT16_MEAN_TOKENS = 26


@dataclass
class GNMTArch:
    """Parameter/operation accounting for the GNMT reference model."""

    vocab_size: int = GNMT_VOCAB_SIZE
    hidden: int = GNMT_HIDDEN
    encoder_layers: int = GNMT_ENCODER_LAYERS
    decoder_layers: int = GNMT_DECODER_LAYERS

    def __post_init__(self) -> None:
        check_range("encoder_layers", self.encoder_layers, AT_LEAST_TWO)
        check_range("decoder_layers", self.decoder_layers, AT_LEAST_TWO)
        h = self.hidden
        self.src_embedding = Embedding(self.vocab_size, h, name="src_emb")
        self.tgt_embedding = Embedding(self.vocab_size, h, name="tgt_emb")

        # Encoder: layer 1 bidirectional, layer 2 consumes the 2h concat,
        # remaining layers are h -> h.
        self.encoder: List[LSTMLayer] = [
            LSTMLayer(h, bidirectional=True, name="enc1")
        ]
        self.encoder.append(LSTMLayer(h, name="enc2"))
        for i in range(3, self.encoder_layers + 1):
            self.encoder.append(LSTMLayer(h, name=f"enc{i}"))

        # Decoder: layer 1 consumes the target embedding (h); attention
        # context (h) is concatenated into the inputs of layers 2..N.
        self.decoder: List[LSTMLayer] = [LSTMLayer(h, name="dec1")]
        for i in range(2, self.decoder_layers + 1):
            self.decoder.append(LSTMLayer(h, name=f"dec{i}"))

        # Bahdanau attention: query and key projections plus the score
        # vector.
        self.attention_query = Dense(h, use_bias=False, name="attn_q")
        self.attention_key = Dense(h, use_bias=False, name="attn_k")
        self.attention_score_params = h  # the "v" vector

        self.projection = Dense(self.vocab_size, name="proj")

    # -- per-layer input widths -------------------------------------------------

    def _encoder_input_widths(self) -> List[int]:
        h = self.hidden
        widths = [h]  # layer 1 input: source embedding
        # Layer 2 input: layer 1's bidirectional concat (2h).
        widths.append(self.encoder[0].output_shape((h,))[-1])
        widths.extend([h] * (self.encoder_layers - 2))
        return widths

    def _decoder_input_widths(self) -> List[int]:
        h = self.hidden
        widths = [h]                                 # layer 1: target emb
        widths.extend([2 * h] * (self.decoder_layers - 1))  # hidden + context
        return widths

    # -- accounting ---------------------------------------------------------------

    def param_count(self) -> int:
        h = self.hidden
        total = 0
        total += self.src_embedding.param_count(())
        total += self.tgt_embedding.param_count(())
        for layer, width in zip(self.encoder, self._encoder_input_widths()):
            total += layer.param_count((width,))
        for layer, width in zip(self.decoder, self._decoder_input_widths()):
            total += layer.param_count((width,))
        total += self.attention_query.param_count((h,))
        total += self.attention_key.param_count((h,))
        total += self.attention_score_params
        total += self.projection.param_count((h,))
        return total

    def macs(self, src_len: int = WMT16_MEAN_TOKENS,
             tgt_len: int = WMT16_MEAN_TOKENS) -> int:
        """Multiply-accumulates for one translation (greedy decode)."""
        h = self.hidden
        total = 0
        for layer, width in zip(self.encoder, self._encoder_input_widths()):
            total += layer.macs((width,)) * src_len
        for layer, width in zip(self.decoder, self._decoder_input_widths()):
            total += layer.macs((width,)) * tgt_len
        # Attention per decoded token: project the query, score every
        # source position, blend the context.
        per_token = (
            self.attention_query.macs((h,))
            + src_len * (h + h)     # score + weighted-sum accumulate
        )
        total += self.attention_key.macs((h,)) * src_len  # keys, once
        total += per_token * tgt_len
        total += self.projection.macs((h,)) * tgt_len
        return total

    def gops(self, src_len: int = WMT16_MEAN_TOKENS,
             tgt_len: int = WMT16_MEAN_TOKENS) -> float:
        return 2.0 * self.macs(src_len, tgt_len) / 1e9


def build_gnmt() -> GNMTArch:
    """The MLPerf machine-translation reference model."""
    return GNMTArch()
