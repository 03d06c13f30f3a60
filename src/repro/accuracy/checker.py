"""The accuracy script (paper Fig. 3 step 7, Section IV-D).

After an accuracy-mode run, the LoadGen's logged responses are checked
against the data set's ground truth and the task's quality target.  The
checker is deliberately independent of the SUT and of the LoadGen
internals - it consumes only the query log and the data set, mirroring
how the real accuracy scripts parse ``mlperf_log_accuracy.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.loadgen import LoadGenResult
from ..datasets.base import Dataset
from ..models.nms import Detection
from .bleu import corpus_bleu
from .map import mean_average_precision
from .topk import top1_accuracy


@dataclass(frozen=True)
class AccuracyReport:
    """Outcome of the accuracy check for one run."""

    metric_name: str
    value: float
    target: float
    passed: bool
    sample_count: int

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        return (
            f"{self.metric_name}: {self.value:.4g} "
            f"(target {self.target:.4g}) -> {verdict} "
            f"[{self.sample_count} samples]"
        )


def responses_by_index(result: LoadGenResult) -> Dict[int, object]:
    """Map data set index -> logged response payload from the run log."""
    index_map = result.log.sample_index_map()
    return {index_map[sample_id]: payload for sample_id, payload
            in result.log.logged_responses().items()}


def _as_detections(data: object) -> List[Detection]:
    """Decode a logged detection payload (Detection list or tuples)."""
    detections = []
    for item in data:
        if isinstance(item, Detection):
            detections.append(item)
        else:
            box, score, class_id = item
            detections.append(Detection(
                box=tuple(float(v) for v in box),
                score=float(score),
                class_id=int(class_id),
            ))
    return detections


#: Task type -> (metric name, payload decoder, label decoder, score):
#: each logged payload and each label is decoded, and the score of the
#: lists, in the target's units, is the reported quality.
_TASK_TYPES = {
    # Top-1 accuracy and its target in percent.
    "classification": ("Top-1 accuracy (%)", int, int, top1_accuracy),
    # COCO mAP and its target in [0, 1].
    "detection": ("mAP", _as_detections, lambda label: label,
                  mean_average_precision),
    "translation": ("SacreBLEU", lambda data: [int(t) for t in data],
                    lambda label: label, corpus_bleu),
}


def check_accuracy(result: LoadGenResult, dataset: Dataset, task_type: str,
                   quality_target: float) -> AccuracyReport:
    """Score the run's logged responses against ``dataset``'s labels
    and ``quality_target``."""
    try:
        metric_name, decode, label, score = _TASK_TYPES[task_type]
    except KeyError:
        raise ValueError(
            f"unknown task type {task_type!r}; "
            f"expected one of {sorted(_TASK_TYPES)}"
        ) from None
    by_index = responses_by_index(result)
    if not by_index:
        raise ValueError(
            "run logged no responses; accuracy checking requires an "
            "accuracy-mode run (or sampled performance logging)"
        )
    predictions = []
    truths = []
    for index, data in sorted(by_index.items()):
        predictions.append(decode(data))
        truths.append(label(dataset.get_label(index)))
    value = score(predictions, truths)
    return AccuracyReport(
        metric_name=metric_name,
        value=value,
        target=quality_target,
        passed=value >= quality_target,
        sample_count=len(predictions),
    )
