"""Synthetic data sets standing in for ImageNet, COCO, and WMT16."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Dataset",),
    "coco": ("GroundTruthObject", "SyntheticCoco"),
    "imagenet": ("SyntheticImageNet",),
    "qsl": ("DatasetQSL",),
    "wmt": ("FIRST_WORD_ID", "SyntheticWmt"),
})
