"""SSD (Single Shot MultiBox Detector) architecture definitions.

Two reference detectors from Table I:

* **SSD-MobileNet-v1** (300x300 COCO, the "light" detector): MobileNet
  backbone tapped at block 11 and block 13, four extra downsampling
  stages, 1x1 prediction heads, anchors (3, 6, 6, 6, 6, 6), 91 classes.
  Target: 6.91 M parameters, 2.47 GOPs/input.

* **SSD-ResNet-34** (1200x1200 upscaled COCO, the "heavy" detector):
  ResNet-34 backbone with the stage-3 downsampling removed (the MLPerf
  modification that keeps a 150x150 feature grid at 1200x1200 input), a
  stride-3 bridge to a 50x50 grid, the ResNet stage-4 blocks, and four
  extra stages, giving the characteristic feature-map ladder
  (50, 25, 13, 7, 3, 3); 3x3 heads, anchors (4, 6, 6, 6, 4, 4),
  81 classes.  Target: 36.3 M parameters, 433 GOPs/input.

Both are built from the same :class:`SSDArch` container so the runnable
tiny detector (``repro.models.runtime.detector``) shares the exact code
path the accounting uses.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..graph import Conv2D, Layer, Sequential, Shape
from .mobilenet import build_mobilenet_v1
from .resnet import basic_block, build_resnet, conv_bn


class SSDArch(Layer):
    """Backbone stages + per-feature-map prediction heads.

    ``stages`` are applied sequentially; the output of stage ``i`` is
    feature map ``i``.  Each feature map gets a class head predicting
    ``anchors * num_classes`` logits and a box head predicting
    ``anchors * 4`` offsets.
    """

    def __init__(
        self,
        stages: Sequence[Sequential],
        anchors_per_cell: Sequence[int],
        num_classes: int,
        head_kernel: int = 3,
        name: str = "ssd",
    ) -> None:
        super().__init__(name)
        if len(stages) != len(anchors_per_cell):
            raise ValueError(
                f"{len(stages)} stages but {len(anchors_per_cell)} anchor specs"
            )
        self.stages = list(stages)
        self.anchors_per_cell = tuple(int(a) for a in anchors_per_cell)
        self.num_classes = int(num_classes)
        self.class_heads: List[Conv2D] = []
        self.box_heads: List[Conv2D] = []
        for i, anchors in enumerate(self.anchors_per_cell):
            self.class_heads.append(
                Conv2D(head_kernel, anchors * num_classes, name=f"cls_head{i}")
            )
            self.box_heads.append(
                Conv2D(head_kernel, anchors * 4, name=f"box_head{i}")
            )

    # -- shapes -----------------------------------------------------------------

    def feature_shapes(self, input_shape: Shape) -> List[Shape]:
        shapes = []
        shape = input_shape
        for stage in self.stages:
            shape = stage.output_shape(shape)
            shapes.append(shape)
        return shapes

    def output_shape(self, input_shape: Shape) -> Shape:
        """Total predictions: ``(num_anchors, num_classes + 4)``."""
        return (self.total_anchors(input_shape), self.num_classes + 4)

    def total_anchors(self, input_shape: Shape) -> int:
        total = 0
        for shape, anchors in zip(self.feature_shapes(input_shape),
                                  self.anchors_per_cell):
            total += shape[0] * shape[1] * anchors
        return total

    # -- accounting ---------------------------------------------------------------

    def param_count(self, input_shape: Shape) -> int:
        total = 0
        shape = input_shape
        for stage, cls_head, box_head in zip(
            self.stages, self.class_heads, self.box_heads
        ):
            total += stage.param_count(shape)
            shape = stage.output_shape(shape)
            total += cls_head.param_count(shape)
            total += box_head.param_count(shape)
        return total

    def macs(self, input_shape: Shape) -> int:
        total = 0
        shape = input_shape
        for stage, cls_head, box_head in zip(
            self.stages, self.class_heads, self.box_heads
        ):
            total += stage.macs(shape)
            shape = stage.output_shape(shape)
            total += cls_head.macs(shape)
            total += box_head.macs(shape)
        return total

    # -- execution ----------------------------------------------------------------

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        shape = input_shape
        for stage, cls_head, box_head in zip(
            self.stages, self.class_heads, self.box_heads
        ):
            shape = stage.initialize(shape, rng)
            cls_head.initialize(shape, rng)
            box_head.initialize(shape, rng)
        return self.output_shape(input_shape)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(class_logits, box_offsets)``.

        ``class_logits``: ``(N, total_anchors, num_classes)``;
        ``box_offsets``: ``(N, total_anchors, 4)``.  Anchor ordering is
        feature-map major, then row, column, anchor - the order
        ``repro.models.runtime.anchors`` generates.
        """
        n = x.shape[0]
        all_logits = []
        all_boxes = []
        feat = x
        for stage, cls_head, box_head, anchors in zip(
            self.stages, self.class_heads, self.box_heads,
            self.anchors_per_cell,
        ):
            feat = stage.forward(feat)
            logits = cls_head.forward(feat)
            boxes = box_head.forward(feat)
            all_logits.append(logits.reshape(n, -1, self.num_classes))
            all_boxes.append(boxes.reshape(n, -1, 4))
        return (
            np.concatenate(all_logits, axis=1),
            np.concatenate(all_boxes, axis=1),
        )


def _extra_stage(mid: int, out: int, stride: int, index: int,
                 kernel: int = 3, padding: str = "same") -> Sequential:
    """The standard SSD extra block: 1x1 squeeze then 3x3 (strided)."""
    name = f"extra{index}"
    return Sequential(
        conv_bn(1, mid, name=f"{name}_squeeze")
        + conv_bn(kernel, out, stride=stride, name=f"{name}_expand",
                  padding=padding),
        name=name,
    )


#: COCO class counts used by the two reference detectors (the TF object
#: detection API counts 90 things + background = 91; the torchvision SSD
#: lineage counts 80 things + background = 81).
SSD_MOBILENET_CLASSES = 91
SSD_RESNET34_CLASSES = 81

SSD_MOBILENET_ANCHORS = (3, 6, 6, 6, 6, 6)
SSD_RESNET34_ANCHORS = (4, 6, 6, 6, 4, 4)


def build_ssd_mobilenet_v1(
    num_classes: int = SSD_MOBILENET_CLASSES,
    width_multiplier: float = 1.0,
) -> SSDArch:
    """SSD-MobileNet-v1 for 300x300 inputs (the light detector)."""
    trunk = build_mobilenet_v1(
        width_multiplier=width_multiplier, include_top=False
    )
    # MobileNet layout: 3 stem layers then 6 layers per separable block.
    # Feature map 1 taps block 11 (19x19), feature map 2 taps block 13.
    split = 3 + 11 * 6
    stage1 = Sequential(trunk.children[:split], name="backbone_to_block11")
    stage2 = Sequential(trunk.children[split:], name="block12_to_block13")

    def scaled(c: int) -> int:
        return max(8, int(round(c * width_multiplier)))

    stages = [
        stage1,
        stage2,
        _extra_stage(scaled(256), scaled(512), 2, 1),
        _extra_stage(scaled(128), scaled(256), 2, 2),
        _extra_stage(scaled(128), scaled(256), 2, 3),
        _extra_stage(scaled(64), scaled(128), 2, 4),
    ]
    return SSDArch(
        stages,
        anchors_per_cell=SSD_MOBILENET_ANCHORS,
        num_classes=num_classes,
        head_kernel=1,
        name="ssd_mobilenet_v1",
    )


def build_ssd_resnet34(num_classes: int = SSD_RESNET34_CLASSES) -> SSDArch:
    """SSD-ResNet-34 for 1200x1200 inputs (the heavy detector)."""
    # Backbone: ResNet-34 conv1..stage3 with stage-3 stride removed, so a
    # 1200x1200 input keeps a 150x150 grid through stage 3.
    backbone = build_resnet(
        depth=34,
        include_top=False,
        stages=3,
        stage_strides=(1, 2, 1),
    )
    # Stride-3 bridge down to the 50x50 grid of the first feature map.
    bridge = Sequential(
        conv_bn(3, 256, stride=3, name="bridge"), name="bridge_stage"
    )
    stage1 = Sequential(backbone.children + bridge.children,
                        name="backbone_to_50x50")
    # ResNet stage 4 (three 512-channel basic blocks) down to 25x25.
    stage4_blocks = [
        basic_block(256, 512, 2, "stage4_block1"),
        basic_block(512, 512, 1, "stage4_block2"),
        basic_block(512, 512, 1, "stage4_block3"),
    ]
    stage2 = Sequential(stage4_blocks, name="stage4_to_25x25")
    stages = [
        stage1,
        stage2,
        _extra_stage(256, 512, 2, 1),                      # 25 -> 13
        _extra_stage(256, 512, 2, 2),                      # 13 -> 7
        _extra_stage(128, 256, 2, 3, padding="valid"),     # 7  -> 3
        _extra_stage(128, 256, 1, 4),                      # 3  -> 3
    ]
    return SSDArch(
        stages,
        anchors_per_cell=SSD_RESNET34_ANCHORS,
        num_classes=num_classes,
        head_kernel=3,
        name="ssd_resnet34",
    )
