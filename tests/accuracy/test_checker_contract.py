"""The accuracy script's reports, pinned as literals per task type.

Each task type's ``AccuracyReport.summary()`` is written out in full for
one passing and one failing run, so the metric name, the score, the
target, the verdict and the sample count cannot move when the three
task types share one checker body.
"""

import pytest

from repro.accuracy.checker import check_accuracy
from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.datasets import DatasetQSL

from tests.accuracy.test_checker import OracleClassifierSUT, PayloadSUT


def accuracy_run(qsl, sut):
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                            mode=TestMode.ACCURACY)
    return run_benchmark(sut, qsl, settings)


def detector_sut(qsl, coco):
    from repro.models.runtime.detector import build_glyph_detector
    from repro.sut.backend import DetectorSUT

    return DetectorSUT(build_glyph_detector(coco, "heavy"), qsl,
                       service_time_fn=lambda n: 0.001 * n)


def translator_sut(qsl, wmt):
    from repro.models.runtime.translator import build_cipher_translator
    from repro.sut.backend import TranslatorSUT

    return TranslatorSUT(build_cipher_translator(wmt), qsl,
                         service_time_fn=lambda n: 0.001 * n)


def first_object_only(qsl, index):
    return [(o.box, 0.9, o.class_id) for o in qsl.dataset.get_label(index)[:1]]


def echo_source(qsl, index):
    return list(qsl.get_sample(index))


CASES = {
    "classification-pass": (
        "imagenet", "classification", 99.0,
        lambda qsl, data: OracleClassifierSUT(qsl),
        "Top-1 accuracy (%): 100 (target 99) -> PASSED [400 samples]"),
    "classification-fail": (
        "imagenet", "classification", 90.0,
        lambda qsl, data: OracleClassifierSUT(qsl, wrong_every=4),
        "Top-1 accuracy (%): 75 (target 90) -> FAILED [400 samples]"),
    "detection-pass": (
        "coco", "detection", 0.2, detector_sut,
        "mAP: 0.3825 (target 0.2) -> PASSED [160 samples]"),
    "detection-fail": (
        "coco", "detection", 0.95,
        lambda qsl, data: PayloadSUT(qsl, first_object_only),
        "mAP: 0.3894 (target 0.95) -> FAILED [160 samples]"),
    "translation-pass": (
        "wmt", "translation", 60.0, translator_sut,
        "SacreBLEU: 73.91 (target 60) -> PASSED [240 samples]"),
    "translation-fail": (
        "wmt", "translation", 60.0,
        lambda qsl, data: PayloadSUT(qsl, echo_source),
        "SacreBLEU: 0.2495 (target 60) -> FAILED [240 samples]"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_summary_literal(case, request):
    fixture, task_type, target, make_sut, expected = CASES[case]
    dataset = request.getfixturevalue(fixture)
    qsl = DatasetQSL(dataset)
    result = accuracy_run(qsl, make_sut(qsl, dataset))
    report = check_accuracy(result, dataset, task_type, target)
    assert report.summary() == expected
