"""Quality metrics and the accuracy script."""

from .bleu import corpus_bleu
from .checker import AccuracyReport, check_accuracy
from .map import COCO_IOU_THRESHOLDS, mean_average_precision
from .topk import top1_accuracy

__all__ = [
    "AccuracyReport",
    "COCO_IOU_THRESHOLDS",
    "check_accuracy",
    "corpus_bleu",
    "mean_average_precision",
    "top1_accuracy",
]
