"""Synthetic data sets standing in for ImageNet, COCO, and WMT16."""

from .base import Dataset
from .coco import GroundTruthObject, SyntheticCoco
from .imagenet import SyntheticImageNet
from .qsl import DatasetQSL
from .wmt import FIRST_WORD_ID, SyntheticWmt

__all__ = [
    "Dataset",
    "DatasetQSL",
    "FIRST_WORD_ID",
    "GroundTruthObject",
    "SyntheticCoco",
    "SyntheticImageNet",
    "SyntheticWmt",
]
