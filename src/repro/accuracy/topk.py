"""Top-1 classification accuracy (the ImageNet quality metric)."""

from __future__ import annotations

from typing import Sequence


def top1_accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Fraction (as a percentage) of predictions equal to their label."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError(
            f"{len(predictions)} predictions but {len(labels)} labels"
        )
    if not predictions:
        raise ValueError("cannot score an empty prediction set")
    correct = sum(int(p == t) for p, t in zip(predictions, labels))
    return 100.0 * correct / len(predictions)
