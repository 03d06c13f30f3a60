"""Synthetic data sets standing in for ImageNet, COCO, and WMT16."""

from .base import Dataset
from .coco import GroundTruthObject, SyntheticCoco
from .imagenet import SyntheticImageNet
from .qsl import DatasetQSL
from .wmt import BOS_ID, EOS_ID, FIRST_WORD_ID, SyntheticWmt

__all__ = [
    "BOS_ID",
    "Dataset",
    "DatasetQSL",
    "EOS_ID",
    "FIRST_WORD_ID",
    "GroundTruthObject",
    "SyntheticCoco",
    "SyntheticImageNet",
    "SyntheticWmt",
]
