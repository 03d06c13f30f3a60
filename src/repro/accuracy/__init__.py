"""Quality metrics and the accuracy script."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bleu": ("corpus_bleu",),
    "checker": ("AccuracyReport", "check_accuracy"),
    "map": ("COCO_IOU_THRESHOLDS", "mean_average_precision"),
    "topk": ("top1_accuracy",),
})
