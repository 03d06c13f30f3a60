"""The full-size image-classification model family (paper Figure 1).

Figure 1 (after Bianco et al.) shows why no single model is optimal:
Top-1 accuracy and computational complexity trade off along a Pareto
frontier, complexity varies ~50x across the family, and "even a small
accuracy change (e.g., a few percent) can drastically alter the
computational requirements (e.g., by 5-10x)".

This module pairs our architecture definitions' *computed* operation
counts with the models' *published* ImageNet accuracies (accuracy cannot
be computed offline - it is a property of trained weights - so the
published figures play the role of the plot's y-axis).  The Figure 1
benchmark asserts the paper's quantitative claims against this family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from .arch.mobilenet import build_mobilenet_v1
from .arch.mobilenet_v2 import build_mobilenet_v2
from .arch.resnet import build_resnet

INPUT = (224, 224, 3)


@dataclass(frozen=True)
class FamilyMember:
    """One point on the accuracy/complexity plane."""

    name: str
    #: Published ImageNet Top-1 accuracy (%) of the canonical trained
    #: weights (torchvision / TF-Slim reference figures).
    published_top1: float
    build: Callable[[], object]

    def gops(self) -> float:
        return 2 * self.build().macs(INPUT) / 1e9


#: The family, ordered by published accuracy.
MODEL_FAMILY: Tuple[FamilyMember, ...] = (
    FamilyMember("MobileNet-v1-0.25", 49.8,
                 lambda: build_mobilenet_v1(width_multiplier=0.25)),
    FamilyMember("MobileNet-v1-0.5", 63.3,
                 lambda: build_mobilenet_v1(width_multiplier=0.5)),
    FamilyMember("MobileNet-v2-0.5", 65.4,
                 lambda: build_mobilenet_v2(width_multiplier=0.5)),
    FamilyMember("MobileNet-v1-0.75", 68.4,
                 lambda: build_mobilenet_v1(width_multiplier=0.75)),
    FamilyMember("ResNet-18", 69.8, lambda: build_resnet(18)),
    FamilyMember("MobileNet-v1-1.0", 71.7,
                 lambda: build_mobilenet_v1(width_multiplier=1.0)),
    FamilyMember("MobileNet-v2-1.0", 71.9,
                 lambda: build_mobilenet_v2(width_multiplier=1.0)),
    FamilyMember("ResNet-34", 73.3, lambda: build_resnet(34)),
    FamilyMember("ResNet-50-v1.5", 76.5, lambda: build_resnet(50)),
    FamilyMember("ResNet-101", 77.4, lambda: build_resnet(101)),
    FamilyMember("ResNet-152", 78.3, lambda: build_resnet(152)),
)


def family_points() -> List[Tuple[str, float, float]]:
    """``(name, gops, published_top1)`` for every member."""
    return [(m.name, m.gops(), m.published_top1) for m in MODEL_FAMILY]


def pareto_frontier(points: List[Tuple[str, float, float]]
                    ) -> List[str]:
    """Names of the non-dominated members (less compute, more accuracy)."""
    frontier = []
    for name, gops, top1 in points:
        dominated = any(
            other_gops <= gops and other_top1 >= top1
            and (other_name != name)
            and (other_gops, other_top1) != (gops, top1)
            for other_name, other_gops, other_top1 in points
        )
        if not dominated:
            frontier.append(name)
    return frontier
