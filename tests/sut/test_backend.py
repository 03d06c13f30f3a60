"""Real-model backends under the LoadGen."""

import numpy as np
import pytest

from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.core.events import EventLoop, VirtualClock
from repro.core.query import Query, QuerySample
from repro.datasets import DatasetQSL
from repro.models.runtime import (
    build_cipher_translator,
    build_glyph_classifier,
    build_glyph_detector,
)
from repro.sut.backend import ClassifierSUT, DetectorSUT, TranslatorSUT


def perf_settings(**kwargs):
    defaults = dict(scenario=Scenario.SINGLE_STREAM, min_query_count=64,
                    min_duration=0.2)
    defaults.update(kwargs)
    return TestSettings(**defaults)


def answer_one_query(sut, qsl, indices):
    """Issue one query over ``indices`` by hand; return the responses
    (or failure) and the virtual time it resolved at."""
    qsl.load_samples(indices)
    loop = EventLoop(VirtualClock())
    outcome = []
    sut.start_run(loop, lambda query, responses: outcome.append(
        (responses, loop.now)))
    sut.issue_query(Query(id=1, samples=tuple(
        QuerySample(id=100 + i, index=index)
        for i, index in enumerate(indices))))
    loop.run()
    (resolved,) = outcome
    return resolved


class ShortBatchSUT(ClassifierSUT):
    """A backend that loses the last output of every batch."""

    def _predict(self, samples):
        return super()._predict(samples)[:-1]


class TestModelSUTMachinery:
    def test_names_follow_the_model(self, imagenet, coco, wmt):
        classifier = build_glyph_classifier(imagenet, "light")
        detector = build_glyph_detector(coco, "light")
        translator = build_cipher_translator(wmt)
        assert (ClassifierSUT(classifier, DatasetQSL(imagenet)).name
                == f"{classifier.name}-sut")
        assert (DetectorSUT(detector, DatasetQSL(coco)).name
                == "glyph-detector-light-sut")
        assert (TranslatorSUT(translator, DatasetQSL(wmt)).name
                == "cipher-translator-sut")

    def test_service_time_is_charged_per_query_size(self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.0005 * n)
        responses, resolved_at = answer_one_query(sut, qsl, list(range(10)))
        assert len(responses) == 10
        assert resolved_at == pytest.approx(0.005)

    def test_responses_keep_sample_order_and_ids(self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "heavy")
        sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.001)
        indices = [7, 3, 11, 5]
        responses, _ = answer_one_query(sut, qsl, indices)
        assert [r.sample_id for r in responses] == [100, 101, 102, 103]
        assert [r.data for r in responses] == [
            model.predict_one(imagenet.get_sample(i)) for i in indices]

    def test_a_mis_sized_output_batch_is_a_recorded_failure(self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ShortBatchSUT(model, qsl, service_time_fn=lambda n: 0.001)
        failure, resolved_at = answer_one_query(sut, qsl, [0, 1, 2])
        assert "produced 2 outputs for 3 samples" in failure.reason
        # The failure still waits out the service time.
        assert resolved_at == pytest.approx(0.001)

    def test_a_run_with_mis_sized_batches_is_invalid_not_aborted(
            self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ShortBatchSUT(model, qsl, service_time_fn=lambda n: 0.001)
        result = run_benchmark(sut, qsl, perf_settings(min_query_count=16,
                                                       min_duration=0.0))
        assert not result.valid
        assert len(result.log.failed_records()) >= 16
        assert any("malformed" in r for r in result.validity.reasons)


class TestClassifierSUT:
    def test_performance_run_valid(self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.002 * n)
        result = run_benchmark(sut, qsl, perf_settings())
        assert result.valid
        assert result.primary_metric == pytest.approx(0.002)

    def test_compute_seconds_accumulates(self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.001)
        run_benchmark(sut, qsl, perf_settings())
        assert sut.compute_seconds > 0.0

    def test_measured_time_mode(self, imagenet):
        """Without a service_time_fn, latency reflects real execution."""
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ClassifierSUT(model, qsl)
        result = run_benchmark(
            sut, qsl, perf_settings(min_query_count=32, min_duration=0.0))
        assert result.metrics.latency_mean > 0.0

    def test_batched_offline_query(self, imagenet):
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.0005 * n)
        settings = TestSettings(scenario=Scenario.OFFLINE,
                                offline_sample_count=128, min_duration=0.0)
        result = run_benchmark(sut, qsl, settings)
        assert result.valid is False or result.metrics.sample_count >= 128
        assert result.metrics.sample_count >= 128

    def test_chunking_does_not_change_labels(self, imagenet):
        # More samples than one forward pass takes: the query runs in
        # chunks, and each label is what the sample alone gets.
        qsl = DatasetQSL(imagenet)
        model = build_glyph_classifier(imagenet, "light")
        indices = list(range(150))
        sut = ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.001)
        responses, _ = answer_one_query(sut, qsl, indices)
        alone = [int(model.predict(np.stack([qsl.get_sample(i)]))[0])
                 for i in indices]
        assert [r.data for r in responses] == alone


class TestDetectorSUT:
    def test_accuracy_payloads_are_detections(self, coco):
        qsl = DatasetQSL(coco)
        model = build_glyph_detector(coco, "heavy")
        sut = DetectorSUT(model, qsl, service_time_fn=lambda n: 0.001)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                mode=TestMode.ACCURACY)
        result = run_benchmark(sut, qsl, settings)
        payloads = result.log.logged_responses()
        assert len(payloads) == len(coco)
        some = next(iter(payloads.values()))
        assert isinstance(some, list)

    def test_chunking_does_not_change_detections(self, coco):
        qsl = DatasetQSL(coco)
        model = build_glyph_detector(coco, "light")
        indices = list(range(40))
        sut = DetectorSUT(model, qsl, service_time_fn=lambda n: 0.001)
        batched, _ = answer_one_query(sut, qsl, indices)
        alone = [model.predict(np.stack([qsl.get_sample(i)]))[0]
                 for i in indices]
        assert [r.data for r in batched] == alone

    def test_performance_run_valid(self, coco):
        qsl = DatasetQSL(coco)
        model = build_glyph_detector(coco, "light")
        sut = DetectorSUT(model, qsl, service_time_fn=lambda n: 0.003 * n)
        result = run_benchmark(sut, qsl, perf_settings(min_query_count=32,
                                                       min_duration=0.0))
        assert result.valid
        assert result.primary_metric == pytest.approx(0.003)


class TestTranslatorSUT:
    def test_translates_sources(self, wmt):
        qsl = DatasetQSL(wmt)
        model = build_cipher_translator(wmt)
        sut = TranslatorSUT(model, qsl, service_time_fn=lambda n: 0.001)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                mode=TestMode.ACCURACY)
        result = run_benchmark(sut, qsl, settings)
        payloads = result.log.logged_responses()
        index_map = result.log.sample_index_map()
        sid, tokens = next(iter(payloads.items()))
        source = wmt.get_sample(index_map[sid])
        assert len(tokens) == len(source)

    def test_accuracy_run_answers_every_sentence(self, wmt):
        qsl = DatasetQSL(wmt)
        model = build_cipher_translator(wmt)
        sut = TranslatorSUT(model, qsl, service_time_fn=lambda n: 0.001)
        settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                mode=TestMode.ACCURACY)
        result = run_benchmark(sut, qsl, settings)
        payloads = result.log.logged_responses()
        index_map = result.log.sample_index_map()
        assert sorted(index_map[sid] for sid in payloads) == \
            list(range(len(wmt)))
        for sid, tokens in payloads.items():
            assert tokens == model.translate(wmt.get_sample(index_map[sid]))

    def test_performance_run_valid(self, wmt):
        qsl = DatasetQSL(wmt)
        model = build_cipher_translator(wmt)
        sut = TranslatorSUT(model, qsl, service_time_fn=lambda n: 0.004)
        result = run_benchmark(sut, qsl, perf_settings(min_query_count=32,
                                                       min_duration=0.0))
        assert result.valid
        assert result.primary_metric == pytest.approx(0.004)
