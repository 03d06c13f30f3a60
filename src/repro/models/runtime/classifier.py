"""Runnable image classifiers for the synthetic ImageNet task.

These are real convolutional networks executed by the numpy kernels;
their weights are *constructed* (matched-filter templates) rather than
trained, which makes them exact in FP32 yet genuinely sensitive to
quantization - the property the Section III-B experiments need.

Two variants mirror Table I's heavy/light split:

* ``heavy`` (the ResNet-50 proxy): full-resolution templates, stride 1 -
  more MACs, higher accuracy.
* ``light`` (the MobileNet-v1 proxy): a stride-2 subsampling convolution
  followed by half-resolution templates - an order of magnitude fewer
  MACs and a few points less accurate (the subsampled image keeps half
  the matched-filter SNR).  Its template channels are additionally given
  a wide per-channel scale spread that a following dense layer
  compensates in FP32; per-tensor INT8 quantization crushes the
  small-scale channels, reproducing MobileNet's notorious quantization
  fragility (and the per-channel fix).
"""

from __future__ import annotations

import copy
from typing import Iterable, List

import numpy as np

from ...datasets.imagenet import SyntheticImageNet
from ..graph import (
    Activation,
    Conv2D,
    Dense,
    GlobalMaxPool,
    Sequential,
)
from ..quantization import QuantizationSpec, quantize_model
from ...datasets.glyphs import glyph_templates, resize_glyphs

#: Per-channel scale spread applied to the light variant (decades).
LIGHT_SCALE_SPREAD = 3.0


class GlyphClassifier:
    """A runnable classifier with a Sequential graph and predict API."""

    def __init__(self, graph: Sequential, input_shape, variant: str) -> None:
        self.graph = graph
        self.input_shape = tuple(input_shape)
        self.variant = variant

    @property
    def name(self) -> str:
        return f"glyph-classifier-{self.variant}"

    def logits(self, images: np.ndarray) -> np.ndarray:
        """Forward a batch ``(N, H, W, 1)`` to class logits ``(N, C)``."""
        if images.ndim == 3:
            images = images[None]
        return self.graph.forward(images.astype(np.float32))

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Batch Top-1 predictions."""
        return np.argmax(self.logits(images), axis=-1)

    def predict_one(self, image: np.ndarray) -> int:
        return int(self.predict(image[None])[0])

    def macs(self) -> int:
        return self.graph.macs(self.input_shape)

    def quantized(self, spec: QuantizationSpec) -> "GlyphClassifier":
        """Return a fake-quantized deep copy (the original is untouched)."""
        clone = copy.deepcopy(self)
        quantize_model(clone.graph, spec)
        return clone


def build_glyph_classifier(
    dataset: SyntheticImageNet,
    variant: str = "heavy",
    gain: float = 4.0,
) -> GlyphClassifier:
    """Construct a matched-filter classifier for ``dataset``.

    The first convolution's filters are the (normalized) class glyph
    templates; global max pooling picks out each template's peak response;
    a dense layer maps template responses to class logits.
    """
    num_classes = dataset.num_classes
    input_shape = (dataset.image_size, dataset.image_size, 1)

    front: List = []
    if variant == "heavy":
        templates = glyph_templates(dataset.glyphs)       # (g, g, 1, C)
        channel_scales = np.ones(num_classes, dtype=np.float32)
    elif variant == "light":
        # Work at half resolution: a stride-2 1x1 subsampling convolution
        # recovers the coarse block pattern exactly at any glyph offset,
        # then half-size templates match it.
        subsample = Conv2D(1, 1, stride=2, padding="same", use_bias=False,
                           name="subsample")
        front.append(subsample)
        small = resize_glyphs(dataset.glyphs, max(3, dataset.glyph_size // 2))
        templates = glyph_templates(small)
        # Spread channel magnitudes across LIGHT_SCALE_SPREAD decades.
        exponents = np.linspace(
            -LIGHT_SCALE_SPREAD / 2, LIGHT_SCALE_SPREAD / 2, num_classes
        )
        channel_scales = (10.0 ** exponents).astype(np.float32)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    conv = Conv2D(templates.shape[0], num_classes, stride=1,
                  padding="same", use_bias=False, name="template_conv")
    relu = Activation("relu", name="rectify")
    pool = GlobalMaxPool(name="pool")
    head = Dense(num_classes, use_bias=False, name="head")

    graph = Sequential(front + [conv, relu, pool, head],
                       name=f"glyph_classifier_{variant}")
    rng = np.random.default_rng(0)
    graph.initialize(input_shape, rng)

    if front:
        front[0].set_parameter("weights", np.ones((1, 1, 1, 1), dtype=np.float32))
    conv.set_parameter(
        "weights", (templates * gain * channel_scales).astype(np.float32)
    )
    # The head undoes the channel scaling (FP32-exact compensation).
    head.set_parameter(
        "weights", np.diag(1.0 / channel_scales).astype(np.float32)
    )
    return GlyphClassifier(graph, input_shape, variant)


def evaluate_classifier(
    model: GlyphClassifier,
    dataset: SyntheticImageNet,
    indices: Iterable[int] = None,
    batch_size: int = 64,
) -> float:
    """Top-1 accuracy (%) of ``model`` over ``dataset``.

    Convenience wrapper for calibration/experiments; benchmark runs
    instead flow through the LoadGen and the accuracy script.
    """
    if indices is None:
        indices = dataset.evaluation_indices
    indices = list(indices)
    correct = 0
    for start in range(0, len(indices), batch_size):
        chunk = indices[start:start + batch_size]
        images = np.stack([dataset.get_sample(i) for i in chunk])
        labels = np.array([dataset.get_label(i) for i in chunk])
        correct += int(np.sum(model.predict(images) == labels))
    return 100.0 * correct / len(indices)
