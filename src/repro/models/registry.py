"""The Table I model registry: reference models, data sets, targets.

Each entry records the paper's published characteristics (parameter
count, GOPs per input, FP32 reference quality, and the quality-target
factor submissions must reach) together with builders for the full-size
architecture definition used by the accounting benchmarks.

The quality target is expressed as the MLPerf rule - a *fraction of the
FP32 reference model's measured quality* - so the same rule applies
unchanged to the tiny runnable instantiations, whose FP32 accuracy on
the synthetic data sets differs from ImageNet/COCO/WMT numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.config import Task
from .arch.gnmt import WMT16_MEAN_TOKENS, build_gnmt
from .arch.mobilenet import mobilenet_v1
from .arch.resnet import resnet50_v15
from .arch.ssd import build_ssd_mobilenet_v1, build_ssd_resnet34


@dataclass(frozen=True)
class ModelInfo:
    """One row of Table I."""

    task: Task
    display_name: str
    dataset: str
    input_shape: Tuple[int, ...]
    #: Paper-published characteristics.
    parameters: float            # e.g. 25.6e6
    gops_per_input: Optional[float]
    #: FP32 reference quality as published (Top-1 %, mAP, SacreBLEU).
    fp32_quality: float
    quality_metric: str
    #: Submissions must achieve at least this fraction of FP32 quality.
    quality_target_factor: float
    #: Builder for the full-size architecture (for accounting).
    build_arch: Callable[[], object]


REGISTRY: Dict[Task, ModelInfo] = {
    Task.IMAGE_CLASSIFICATION_HEAVY: ModelInfo(
        task=Task.IMAGE_CLASSIFICATION_HEAVY,
        display_name="ResNet-50 v1.5",
        dataset="ImageNet (224x224)",
        input_shape=(224, 224, 3),
        parameters=25.6e6,
        gops_per_input=8.2,
        fp32_quality=76.456,
        quality_metric="Top-1 accuracy (%)",
        quality_target_factor=0.99,
        build_arch=resnet50_v15,
    ),
    Task.IMAGE_CLASSIFICATION_LIGHT: ModelInfo(
        task=Task.IMAGE_CLASSIFICATION_LIGHT,
        display_name="MobileNet-v1 224",
        dataset="ImageNet (224x224)",
        input_shape=(224, 224, 3),
        parameters=4.2e6,
        gops_per_input=1.138,
        fp32_quality=71.676,
        quality_metric="Top-1 accuracy (%)",
        # Widened to 2% after quantization-friendly retraining was needed
        # to make mobile networks viable at all (Section III-B).
        quality_target_factor=0.98,
        build_arch=mobilenet_v1,
    ),
    Task.OBJECT_DETECTION_HEAVY: ModelInfo(
        task=Task.OBJECT_DETECTION_HEAVY,
        display_name="SSD-ResNet-34",
        dataset="COCO (1200x1200)",
        input_shape=(1200, 1200, 3),
        parameters=36.3e6,
        gops_per_input=433.0,
        fp32_quality=0.20,
        quality_metric="mAP",
        quality_target_factor=0.99,
        build_arch=build_ssd_resnet34,
    ),
    Task.OBJECT_DETECTION_LIGHT: ModelInfo(
        task=Task.OBJECT_DETECTION_LIGHT,
        display_name="SSD-MobileNet-v1",
        dataset="COCO (300x300)",
        input_shape=(300, 300, 3),
        parameters=6.91e6,
        gops_per_input=2.47,
        fp32_quality=0.22,
        quality_metric="mAP",
        quality_target_factor=0.99,
        build_arch=build_ssd_mobilenet_v1,
    ),
    Task.MACHINE_TRANSLATION: ModelInfo(
        task=Task.MACHINE_TRANSLATION,
        display_name="GNMT",
        dataset="WMT16 EN-DE",
        input_shape=(WMT16_MEAN_TOKENS,),
        parameters=210e6,
        gops_per_input=None,   # Table I quotes no GOPs for GNMT
        fp32_quality=23.9,
        quality_metric="SacreBLEU",
        quality_target_factor=0.99,
        build_arch=build_gnmt,
    ),
}


def model_info(task: Task) -> ModelInfo:
    """Look up the Table I entry for ``task``."""
    return REGISTRY[task]


def all_models() -> Tuple[ModelInfo, ...]:
    """All Table I entries, in the paper's row order."""
    return tuple(REGISTRY[task] for task in Task)
