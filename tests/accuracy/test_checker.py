"""The accuracy script: logs + ground truth -> pass/fail."""

import pytest

from repro.accuracy.checker import check_accuracy
from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.datasets import DatasetQSL


class OracleClassifierSUT(SutBase):
    """Returns the dataset's own label, optionally corrupted."""

    def __init__(self, qsl, wrong_every: int = 0):
        super().__init__("oracle")
        self.qsl = qsl
        self.wrong_every = wrong_every
        self._count = 0

    def issue_query(self, query):
        responses = []
        for sample in query.samples:
            self._count += 1
            label = self.qsl.dataset.get_label(sample.index)
            if self.wrong_every and self._count % self.wrong_every == 0:
                label = (label + 1) % 16
            responses.append(QuerySampleResponse(sample.id, label))
        self.loop.schedule_after(0.001, lambda: self.complete(query, responses))


class PayloadSUT(SutBase):
    """Answers each sample with ``payload(qsl, index)``."""

    def __init__(self, qsl, payload):
        super().__init__("payload")
        self.qsl = qsl
        self.payload = payload

    def issue_query(self, query):
        responses = [
            QuerySampleResponse(s.id, self.payload(self.qsl, s.index))
            for s in query.samples
        ]
        self.loop.schedule_after(0.001, lambda: self.complete(query, responses))


def accuracy_run(qsl, sut):
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                            mode=TestMode.ACCURACY)
    return run_benchmark(sut, qsl, settings)


class TestClassificationChecker:
    def test_oracle_passes(self, imagenet):
        qsl = DatasetQSL(imagenet)
        result = accuracy_run(qsl, OracleClassifierSUT(qsl))
        report = check_accuracy(result, imagenet, "classification", 99.0)
        assert report.passed
        assert report.value == 100.0
        assert report.sample_count == len(imagenet)

    def test_corrupted_sut_fails_target(self, imagenet):
        qsl = DatasetQSL(imagenet)
        result = accuracy_run(qsl, OracleClassifierSUT(qsl, wrong_every=4))
        report = check_accuracy(result, imagenet, "classification", 90.0)
        assert not report.passed
        assert report.value == pytest.approx(75.0, abs=1.0)

    def test_summary_format(self, imagenet):
        qsl = DatasetQSL(imagenet)
        result = accuracy_run(qsl, OracleClassifierSUT(qsl))
        report = check_accuracy(result, imagenet, "classification", 99.0)
        assert "PASSED" in report.summary()
        assert "Top-1" in report.summary()

    def test_meeting_the_target_exactly_passes(self, imagenet):
        qsl = DatasetQSL(imagenet)
        result = accuracy_run(qsl, OracleClassifierSUT(qsl))
        report = check_accuracy(result, imagenet, "classification", 100.0)
        assert report.value == report.target == 100.0
        assert report.passed

    def test_failed_summary_names_the_verdict_and_sample_count(
            self, imagenet):
        qsl = DatasetQSL(imagenet)
        result = accuracy_run(qsl, OracleClassifierSUT(qsl, wrong_every=2))
        report = check_accuracy(result, imagenet, "classification", 90.0)
        assert "FAILED" in report.summary()
        assert f"[{len(imagenet)} samples]" in report.summary()


class TestCheckerPlumbing:
    def test_unknown_task_type_rejected(self, imagenet):
        qsl = DatasetQSL(imagenet)
        result = accuracy_run(qsl, OracleClassifierSUT(qsl))
        with pytest.raises(ValueError, match="unknown task type"):
            check_accuracy(result, imagenet, "segmentation", 1.0)

    def test_performance_run_without_logging_rejected(self, imagenet):
        qsl = DatasetQSL(imagenet)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                min_query_count=32, min_duration=0.1)
        result = run_benchmark(OracleClassifierSUT(qsl), qsl, settings)
        with pytest.raises(ValueError, match="no responses"):
            check_accuracy(result, imagenet, "classification", 1.0)


class TestDetectionChecker:
    def test_detection_payload_decoding(self, coco):
        from repro.models.runtime.detector import build_glyph_detector
        from repro.sut.backend import DetectorSUT

        qsl = DatasetQSL(coco)
        model = build_glyph_detector(coco, "heavy")
        sut = DetectorSUT(model, qsl, service_time_fn=lambda n: 0.001 * n)
        result = accuracy_run(qsl, sut)
        report = check_accuracy(result, coco, "detection", 0.2)
        assert report.metric_name == "mAP"
        assert report.passed
        assert 0.2 < report.value < 0.8

    def test_tuple_payloads_accepted(self, coco):
        class TuplePayloadSUT(SutBase):
            def __init__(self, qsl):
                super().__init__("tuples")
                self.qsl = qsl

            def issue_query(self, query):
                responses = []
                for sample in query.samples:
                    objs = self.qsl.dataset.get_label(sample.index)
                    payload = [
                        (o.box, 0.9, o.class_id) for o in objs
                    ]
                    responses.append(QuerySampleResponse(sample.id, payload))
                self.loop.schedule_after(
                    0.001, lambda: self.complete(query, responses))

        qsl = DatasetQSL(coco)
        result = accuracy_run(qsl, TuplePayloadSUT(qsl))
        report = check_accuracy(result, coco, "detection", 0.95)
        assert report.passed
        assert report.value == pytest.approx(1.0)

    def test_missed_objects_fail_the_target(self, coco):
        # Report only the first object of each image: recall drops, and
        # with it the mAP.
        qsl = DatasetQSL(coco)
        result = accuracy_run(qsl, PayloadSUT(qsl, lambda qsl, index: [
            (o.box, 0.9, o.class_id) for o in coco.get_label(index)[:1]]))
        report = check_accuracy(result, coco, "detection", 0.95)
        assert not report.passed
        assert 0.0 < report.value < 0.95
        assert report.sample_count == len(coco)


class TestTranslationOracle:
    def test_reference_tokens_score_100(self, wmt):
        qsl = DatasetQSL(wmt)
        result = accuracy_run(qsl, PayloadSUT(qsl, lambda qsl, index:
                                              list(wmt.get_label(index))))
        report = check_accuracy(result, wmt, "translation", 99.0)
        assert report.passed
        assert report.value == pytest.approx(100.0)

    def test_echoing_the_source_fails(self, wmt):
        qsl = DatasetQSL(wmt)
        result = accuracy_run(qsl, PayloadSUT(qsl, lambda qsl, index:
                                              list(qsl.get_sample(index))))
        report = check_accuracy(result, wmt, "translation", 60.0)
        assert not report.passed
        assert report.value < 60.0


class TestTranslationChecker:
    def test_translator_backend_passes_its_target(self, wmt):
        from repro.models.runtime.translator import build_cipher_translator
        from repro.sut.backend import TranslatorSUT

        qsl = DatasetQSL(wmt)
        model = build_cipher_translator(wmt)
        sut = TranslatorSUT(model, qsl, service_time_fn=lambda n: 0.001 * n)
        result = accuracy_run(qsl, sut)
        report = check_accuracy(result, wmt, "translation", 60.0)
        assert report.metric_name == "SacreBLEU"
        assert report.passed
        assert 60.0 < report.value < 100.0
