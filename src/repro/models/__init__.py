"""Reference-model substrate: layers, architectures, runtimes, formats."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "family": (
        "MODEL_FAMILY", "FamilyMember", "family_points", "pareto_frontier",
    ),
    "nms": ("Detection", "fast_nms", "iou_matrix", "multiclass_nms", "nms"),
    "quantization": (
        "NumericFormat", "QuantizationSpec", "calibrate_clip_percentile",
        "quantize_model", "quantize_tensor", "cross_layer_equalization",
    ),
    "registry": ("ModelInfo", "all_models", "model_info"),
    "training": (
        "SGD", "TrainReport", "softmax_cross_entropy",
        "train_quantization_aware",
    ),
})
