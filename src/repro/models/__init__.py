"""Reference-model substrate: layers, architectures, runtimes, formats."""

from .family import MODEL_FAMILY, FamilyMember, family_points, pareto_frontier
from .nms import Detection, fast_nms, iou_matrix, multiclass_nms, nms
from .quantization import (
    NumericFormat,
    QuantizationSpec,
    calibrate_clip_percentile,
    quantize_model,
    quantize_tensor,
)
from .quantization import cross_layer_equalization
from .registry import ModelInfo, all_models, model_info
from .training import (
    SGD,
    TrainReport,
    softmax_cross_entropy,
    train_quantization_aware,
)

__all__ = [
    "Detection",
    "FamilyMember",
    "MODEL_FAMILY",
    "ModelInfo",
    "NumericFormat",
    "QuantizationSpec",
    "all_models",
    "SGD",
    "TrainReport",
    "calibrate_clip_percentile",
    "cross_layer_equalization",
    "fast_nms",
    "iou_matrix",
    "model_info",
    "multiclass_nms",
    "nms",
    "quantize_model",
    "family_points",
    "pareto_frontier",
    "quantize_tensor",
    "softmax_cross_entropy",
    "train_quantization_aware",
]
