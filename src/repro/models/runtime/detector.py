"""Runnable SSD detectors for the synthetic COCO task.

The detector is a genuine single-shot architecture built on
:class:`~repro.models.arch.ssd.SSDArch`: one convolutional stage whose
filters are the class glyph templates at the data set's two object
scales, a 1x1 class head wiring each template channel to the matching
(anchor, class) logit, and a box head (zero offsets - anchors are dense
enough that the undisplaced anchor clears the 0.5-IoU matching bar).
Softmax scores then flow through real multi-class NMS.

Variants mirror Table I:

* ``heavy`` (SSD-ResNet-34 proxy): stride-2 feature grid, full-size
  templates - denser anchors, higher mAP, ~5x the MACs.
* ``light`` (SSD-MobileNet-v1 proxy): stride-4 grid with subsampled
  templates - cheaper, lower mAP (sparser anchors miss more of the
  misaligned objects).
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional

import numpy as np

from ...datasets.coco import GroundTruthObject, SyntheticCoco
from ...datasets.glyphs import glyph_templates
from ..arch.ssd import SSDArch
from ..graph import Activation, Conv2D, Sequential
from ..layers import softmax
from ..nms import Detection, multiclass_nms
from ..quantization import QuantizationSpec, quantize_model
from .anchors import decode_boxes, single_map_anchors


class GlyphDetector:
    """A runnable detector wrapping an :class:`SSDArch` instance."""

    def __init__(
        self,
        arch: SSDArch,
        anchors: np.ndarray,
        input_shape,
        variant: str,
        score_threshold: float = 0.3,
        nms_algorithm: str = "regular",
        nms_iou: float = 0.5,
    ) -> None:
        self.arch = arch
        self.anchors = anchors
        self.input_shape = tuple(input_shape)
        self.variant = variant
        self.score_threshold = score_threshold
        self.nms_algorithm = nms_algorithm
        self.nms_iou = nms_iou

    @property
    def name(self) -> str:
        return f"glyph-detector-{self.variant}"

    def predict(self, images: np.ndarray) -> List[List[Detection]]:
        """Detect objects in a batch ``(N, H, W, 1)``."""
        if images.ndim == 3:
            images = images[None]
        logits, offsets = self.arch.forward(images.astype(np.float32))
        results: List[List[Detection]] = []
        for n in range(images.shape[0]):
            scores = softmax(logits[n], axis=-1)
            boxes = decode_boxes(self.anchors, offsets[n])
            results.append(multiclass_nms(
                boxes,
                scores,
                score_threshold=self.score_threshold,
                iou_threshold=self.nms_iou,
                algorithm=self.nms_algorithm,
            ))
        return results

    def quantized(self, spec: QuantizationSpec) -> "GlyphDetector":
        """Return a fake-quantized deep copy (the original is untouched)."""
        clone = copy.deepcopy(self)
        quantize_model(clone.arch, spec)
        return clone


def build_glyph_detector(
    dataset: SyntheticCoco,
    variant: str = "heavy",
    gain: float = 4.0,
    background_bias: float = 9.0,
    score_threshold: float = 0.3,
    nms_algorithm: str = "regular",
) -> GlyphDetector:
    """Construct a template-matching SSD for ``dataset``."""
    num_classes = dataset.num_classes
    small_size, large_size = dataset.object_scales
    input_shape = (dataset.image_size, dataset.image_size, 1)

    if variant == "heavy":
        stride = 2
        small_bank = glyph_templates(dataset.glyphs)            # (s,s,1,C)
        large_bank = glyph_templates(dataset.large_glyphs)      # (l,l,1,C)
    elif variant == "light":
        stride = 4
        small_bank = glyph_templates(dataset.glyphs)
        large_bank = glyph_templates(dataset.large_glyphs)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    kernel = large_size
    # Embed both template banks in a kernel of the large size; the small
    # bank sits centred, so its anchors share the window centre.
    filters = np.zeros((kernel, kernel, 1, 2 * num_classes), dtype=np.float32)
    pad = (kernel - small_size) // 2
    filters[pad:pad + small_size, pad:pad + small_size, :, :num_classes] = (
        small_bank * gain
    )
    filters[:, :, :, num_classes:] = large_bank * gain

    feature_conv = Conv2D(kernel, 2 * num_classes, stride=stride,
                          padding="valid", use_bias=False, name="templates")
    stage = Sequential([feature_conv, Activation("relu", name="rect")],
                       name="feature_stage")

    total_classes = num_classes + 1   # plus background
    arch = SSDArch(
        stages=[stage],
        anchors_per_cell=(2,),
        num_classes=total_classes,
        head_kernel=1,
        name=f"glyph_ssd_{variant}",
    )
    rng = np.random.default_rng(0)
    arch.initialize(input_shape, rng)
    feature_conv.set_parameter("weights", filters)

    # Class head: anchor 0 (small scale) reads the small template bank,
    # anchor 1 (large scale) the large bank; background is bias-only.
    cls_head = arch.class_heads[0]
    cls_weights = np.zeros((1, 1, 2 * num_classes, 2 * total_classes),
                           dtype=np.float32)
    cls_bias = np.zeros(2 * total_classes, dtype=np.float32)
    for anchor_index in range(2):
        base = anchor_index * total_classes
        cls_bias[base + 0] = background_bias
        for class_index in range(num_classes):
            feature_channel = anchor_index * num_classes + class_index
            cls_weights[0, 0, feature_channel, base + 1 + class_index] = 1.0
    cls_head.set_parameter("weights", cls_weights)
    cls_head.set_parameter("bias", cls_bias)

    # Box head: zero offsets - the anchors themselves are the boxes.
    box_head = arch.box_heads[0]
    box_head.set_parameter(
        "weights", np.zeros_like(box_head.params["weights"]))
    box_head.set_parameter("bias", np.zeros_like(box_head.params["bias"]))

    anchors = single_map_anchors(
        dataset.image_size, kernel, stride,
        scales=(small_size, large_size), padding="valid",
    )
    return GlyphDetector(
        arch, anchors, input_shape, variant,
        score_threshold=score_threshold,
        nms_algorithm=nms_algorithm,
    )


def evaluate_detector(
    model: GlyphDetector,
    dataset: SyntheticCoco,
    indices: Optional[Iterable[int]] = None,
    batch_size: int = 32,
) -> float:
    """mAP of ``model`` over ``dataset`` (convenience wrapper)."""
    from ...accuracy.map import mean_average_precision

    if indices is None:
        indices = dataset.evaluation_indices
    indices = list(indices)
    all_detections: List[List[Detection]] = []
    all_truth: List[List[GroundTruthObject]] = []
    for start in range(0, len(indices), batch_size):
        chunk = indices[start:start + batch_size]
        images = np.stack([dataset.get_sample(i) for i in chunk])
        all_detections.extend(model.predict(images))
        all_truth.extend(dataset.get_label(i) for i in chunk)
    return mean_average_precision(all_detections, all_truth)
