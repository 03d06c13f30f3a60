"""Quality metrics: Top-1, mAP, BLEU."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.accuracy.bleu import corpus_bleu
from repro.accuracy.map import (
    COCO_IOU_THRESHOLDS,
    average_precision_for_class,
    mean_average_precision,
)
from repro.accuracy.topk import top1_accuracy
from repro.datasets.coco import GroundTruthObject
from repro.models.nms import Detection


class TestTop1:
    def test_perfect(self):
        assert top1_accuracy([1, 2, 3], [1, 2, 3]) == 100.0

    def test_half(self):
        assert top1_accuracy([1, 2, 3, 4], [1, 2, 0, 0]) == 50.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            top1_accuracy([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top1_accuracy([], [])

    def test_accepts_arrays_and_iterators(self):
        predictions = np.array([3, 1, 4, 1])
        assert top1_accuracy(predictions, iter([3, 1, 0, 0])) == 50.0

    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=50))
    def test_bounds_and_self_consistency(self, labels):
        assert top1_accuracy(labels, labels) == 100.0
        shifted = [(l + 1) % 7 for l in labels]
        assert top1_accuracy(shifted, labels) == 0.0


def det(box, score, class_id=1):
    return Detection(box=box, score=score, class_id=class_id)


def truth(box, class_id=1):
    return GroundTruthObject(box=box, class_id=class_id)


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        detections = [[det((0, 0, 10, 10), 0.9)]]
        truths = [[truth((0, 0, 10, 10))]]
        ap = average_precision_for_class(detections, truths, 1, 0.5)
        assert ap == pytest.approx(1.0)

    def test_missed_object_halves_recall(self):
        detections = [[det((0, 0, 10, 10), 0.9)]]
        truths = [[truth((0, 0, 10, 10)), truth((30, 30, 40, 40))]]
        ap = average_precision_for_class(detections, truths, 1, 0.5)
        assert ap == pytest.approx(0.5)

    def test_false_positive_after_true_positive(self):
        detections = [[det((0, 0, 10, 10), 0.9), det((50, 50, 60, 60), 0.5)]]
        truths = [[truth((0, 0, 10, 10))]]
        ap = average_precision_for_class(detections, truths, 1, 0.5)
        # TP at rank 1: full recall at precision 1 -> AP 1.0 despite the FP.
        assert ap == pytest.approx(1.0)

    def test_false_positive_before_true_positive(self):
        detections = [[det((50, 50, 60, 60), 0.9), det((0, 0, 10, 10), 0.5)]]
        truths = [[truth((0, 0, 10, 10))]]
        ap = average_precision_for_class(detections, truths, 1, 0.5)
        assert ap == pytest.approx(0.5)

    def test_duplicate_detection_is_a_false_positive(self):
        detections = [[det((0, 0, 10, 10), 0.9), det((0, 0, 10, 10), 0.8)]]
        truths = [[truth((0, 0, 10, 10))]]
        ap = average_precision_for_class(detections, truths, 1, 0.5)
        assert ap == pytest.approx(1.0)   # dup ranks after full recall
        # But if the duplicate outranks a second object's detection, it costs:
        detections = [[det((0, 0, 10, 10), 0.9), det((0, 0, 10, 10), 0.8),
                       det((30, 30, 40, 40), 0.7)]]
        truths = [[truth((0, 0, 10, 10)), truth((30, 30, 40, 40))]]
        ap = average_precision_for_class(detections, truths, 1, 0.5)
        assert 0.5 < ap < 1.0

    def test_class_without_truth_is_nan(self):
        ap = average_precision_for_class(
            [[det((0, 0, 1, 1), 0.9, class_id=2)]],
            [[truth((0, 0, 1, 1), class_id=1)]],
            2, 0.5,
        )
        assert np.isnan(ap)

    def test_no_detections_zero_ap(self):
        ap = average_precision_for_class([[]], [[truth((0, 0, 1, 1))]], 1, 0.5)
        assert ap == 0.0


class TestMeanAveragePrecision:
    def test_perfect_across_classes(self):
        detections = [[det((0, 0, 10, 10), 0.9, 1),
                       det((20, 20, 30, 30), 0.9, 2)]]
        truths = [[truth((0, 0, 10, 10), 1), truth((20, 20, 30, 30), 2)]]
        assert mean_average_precision(detections, truths) == pytest.approx(1.0)

    def test_loose_boxes_fail_high_iou_thresholds(self):
        # IoU ~0.68: counts at 0.5-0.65, fails at 0.7+.
        detections = [[det((0, 0, 10, 10), 0.9)]]
        truths = [[truth((1, 1, 11, 11))]]
        strict = mean_average_precision(detections, truths)
        loose = mean_average_precision(detections, truths, (0.5,))
        assert loose == pytest.approx(1.0)
        assert strict < loose

    def test_coco_thresholds(self):
        assert COCO_IOU_THRESHOLDS[0] == 0.5
        assert COCO_IOU_THRESHOLDS[-1] == 0.95
        assert len(COCO_IOU_THRESHOLDS) == 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([[]], [[], []])

    def test_empty_everything_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([[]], [[]])


class TestBleu:
    def test_perfect_translation(self):
        refs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        assert corpus_bleu(refs, refs) == pytest.approx(100.0)

    def test_word_order_matters(self):
        ref = [[1, 2, 3, 4, 5, 6]]
        scrambled = [[4, 2, 6, 1, 5, 3]]
        score = corpus_bleu(scrambled, ref)
        assert 0 < score < 60   # unigrams match, higher n-grams don't

    def test_brevity_penalty(self):
        ref = [[1, 2, 3, 4, 5, 6, 7, 8]]
        short = [[1, 2, 3, 4]]
        full = [[1, 2, 3, 4, 5, 6, 7, 8]]
        assert corpus_bleu(short, ref) < corpus_bleu(full, ref)

    def test_no_penalty_for_longer_hypothesis(self):
        ref = [[1, 2, 3, 4]]
        longer = [[1, 2, 3, 4, 9, 9]]
        score = corpus_bleu(longer, ref)
        # Precision drops but no brevity penalty applies.
        assert 0 < score < 100

    def test_corpus_level_not_average_of_sentences(self):
        hyps = [[1, 2], [3, 4, 5, 6, 7, 8]]
        refs = [[1, 2], [3, 4, 5, 6, 7, 9]]
        corpus = corpus_bleu(hyps, refs)
        mean_sentence = np.mean([
            corpus_bleu([h], [r]) for h, r in zip(hyps, refs)
        ])
        assert corpus != pytest.approx(mean_sentence)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [[1], [2]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_clipped_counts(self):
        # Repeating a matching token must not inflate precision.
        hyp = [[1, 1, 1, 1]]
        ref = [[1, 2, 3, 4]]
        repeated = corpus_bleu(hyp, ref)
        honest = corpus_bleu([[1, 9, 9, 9]], ref)
        assert repeated == pytest.approx(honest, abs=1.0)

    @given(st.lists(st.integers(min_value=0, max_value=20),
                    min_size=4, max_size=20))
    def test_self_translation_is_100(self, sentence):
        assert corpus_bleu([sentence], [sentence]) == pytest.approx(100.0)
