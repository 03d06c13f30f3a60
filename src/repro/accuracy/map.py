"""Mean average precision for object detection (the COCO quality metric).

COCO-style evaluation: for each class and each IoU threshold, detections
are matched greedily (highest score first) to unmatched ground-truth
boxes; the precision-recall curve is interpolated (precision envelope)
and integrated to an average precision.  mAP averages AP over classes
and over the IoU thresholds 0.50:0.05:0.95, matching how Table I's
"0.22 mAP" style numbers are computed.

Inputs reuse :class:`repro.models.nms.Detection` and
:class:`repro.datasets.coco.GroundTruthObject`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..datasets.coco import GroundTruthObject
from ..models.nms import Detection, iou_matrix

#: The standard COCO IoU threshold grid.
COCO_IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 1.0, 0.05), 2))


def _collect_class_ids(
    detections: Sequence[Sequence[Detection]],
    truths: Sequence[Sequence[GroundTruthObject]],
) -> List[int]:
    ids = {t.class_id for image in truths for t in image}
    ids.update(d.class_id for image in detections for d in image)
    return sorted(ids)


def average_precision_for_class(
    detections: Sequence[Sequence[Detection]],
    truths: Sequence[Sequence[GroundTruthObject]],
    class_id: int,
    iou_threshold: float,
) -> float:
    """AP of one class at one IoU threshold across all images."""
    total_truth = sum(
        1 for image in truths for t in image if t.class_id == class_id
    )
    if total_truth == 0:
        return float("nan")

    # Flatten this class's detections as (score, image_index, box).
    flat: List[Tuple[float, int, Tuple[float, ...]]] = []
    for image_index, image in enumerate(detections):
        for det in image:
            if det.class_id == class_id:
                flat.append((det.score, image_index, det.box))
    if not flat:
        return 0.0
    flat.sort(key=lambda item: item[0], reverse=True)

    matched: Dict[int, set] = {}
    tp = np.zeros(len(flat))
    fp = np.zeros(len(flat))
    for rank, (_score, image_index, box) in enumerate(flat):
        gt_boxes = [
            (slot, t) for slot, t in enumerate(truths[image_index])
            if t.class_id == class_id
        ]
        best_iou = 0.0
        best_slot = None
        if gt_boxes:
            ious = iou_matrix(
                np.array([box]), np.array([t.box for _slot, t in gt_boxes])
            )[0]
            order = np.argsort(ious)[::-1]
            for candidate in order:
                slot = gt_boxes[candidate][0]
                if slot in matched.get(image_index, set()):
                    continue
                best_iou = float(ious[candidate])
                best_slot = slot
                break
        if best_slot is not None and best_iou >= iou_threshold:
            matched.setdefault(image_index, set()).add(best_slot)
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recall = cum_tp / total_truth
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)

    # Precision envelope, then all-point interpolation:
    # AP = sum_i (r_i - r_{i-1}) * p_i with r_0 = 0.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def mean_average_precision(
    detections: Sequence[Sequence[Detection]],
    truths: Sequence[Sequence[GroundTruthObject]],
    iou_thresholds: Iterable[float] = COCO_IOU_THRESHOLDS,
) -> float:
    """COCO-style mAP in [0, 1] over all classes and IoU thresholds."""
    if len(detections) != len(truths):
        raise ValueError(
            f"{len(detections)} detection lists but {len(truths)} truth lists"
        )
    class_ids = _collect_class_ids(detections, truths)
    if not class_ids:
        raise ValueError("no ground truth or detections to score")
    aps: List[float] = []
    for threshold in iou_thresholds:
        for class_id in class_ids:
            ap = average_precision_for_class(
                detections, truths, class_id, threshold
            )
            if not np.isnan(ap):
                aps.append(ap)
    if not aps:
        raise ValueError("no class had any ground truth")
    return float(np.mean(aps))
