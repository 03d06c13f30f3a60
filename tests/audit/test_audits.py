"""Section V-B audit tests: honest systems pass, cheaters are caught."""

import numpy as np
import pytest

import repro.audit.accuracy_verification as accuracy_verification

from repro.audit import (
    CustomDatasetReport,
    run_accuracy_verification,
    run_caching_detection,
    run_custom_dataset_test,
    run_seed_test,
)
from repro.core import Scenario, TestSettings
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.datasets import (
    DatasetQSL,
    SyntheticCoco,
    SyntheticImageNet,
    SyntheticWmt,
)
from repro.models.runtime import (
    build_cipher_translator,
    build_glyph_classifier,
    build_glyph_detector,
)
from repro.sut.backend import ClassifierSUT, DetectorSUT, TranslatorSUT


def perf_settings():
    return TestSettings(scenario=Scenario.SINGLE_STREAM,
                        min_query_count=150, min_duration=0.3)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticImageNet(size=250)


@pytest.fixture(scope="module")
def qsl(dataset):
    return DatasetQSL(dataset)


def honest_factory(dataset, qsl):
    model = build_glyph_classifier(dataset, "heavy")

    def factory():
        return ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.002 * n)

    return factory


class GarbageInPerfModeSUT(SutBase):
    """Cheater: returns constant junk (fast) - only an accuracy-mode run
    would compute real outputs.  Simulates skipping inference."""

    def __init__(self, qsl, model):
        super().__init__("garbage-perf")
        self.qsl = qsl
        self.model = model
        self.calls = 0

    def issue_query(self, query):
        self.calls += 1
        # First full pass (accuracy mode covers the whole set in order)
        # is honest; later runs return junk.
        honest = self.calls <= self.qsl.total_sample_count
        responses = []
        for sample in query.samples:
            if honest:
                label = self.model.predict_one(self.qsl.get_sample(sample.index))
            else:
                label = -1
            responses.append(QuerySampleResponse(sample.id, label))
        self.loop.schedule_after(
            0.001, lambda: self.complete(query, responses))


class TestAccuracyVerification:
    def test_honest_sut_passes(self, dataset, qsl):
        report = run_accuracy_verification(
            honest_factory(dataset, qsl), qsl, perf_settings())
        assert report.passed
        assert report.checked > 0
        assert "PASSED" in report.summary()

    def test_garbage_perf_mode_caught(self, dataset, qsl):
        model = build_glyph_classifier(dataset, "heavy")
        state = {"sut": None}

        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            sut = GarbageInPerfModeSUT(qsl, model)
            # Make only the first (accuracy) run honest.
            if calls["n"] > 1:
                sut.calls = qsl.total_sample_count + 1
            return sut

        report = run_accuracy_verification(factory, qsl, perf_settings())
        assert not report.passed
        assert report.mismatches > 0
        assert "FAILED" in report.summary()

    def test_zero_probability_rejected(self, dataset, qsl, monkeypatch):
        monkeypatch.setattr(accuracy_verification, "LOG_PROBABILITY", 0.0)
        with pytest.raises(RuntimeError, match="logged no responses"):
            run_accuracy_verification(
                honest_factory(dataset, qsl), qsl, perf_settings())


class CachingSUT(SutBase):
    """Cheater: memoizes results keyed by sample index, so repeated
    indices complete 100x faster."""

    def __init__(self, qsl):
        super().__init__("cacher")
        self.qsl = qsl
        self.cache = set()

    def issue_query(self, query):
        duration = 0.0
        for sample in query.samples:
            if sample.index in self.cache:
                duration += 0.00002
            else:
                self.cache.add(sample.index)
                duration += 0.002
        responses = [QuerySampleResponse(s.id, 0) for s in query.samples]
        self.loop.schedule_after(
            duration, lambda: self.complete(query, responses))


class TestCachingDetection:
    def test_honest_sut_passes(self, dataset, qsl):
        report = run_caching_detection(
            honest_factory(dataset, qsl), qsl, perf_settings())
        assert report.passed
        assert report.speedup == pytest.approx(1.0, abs=0.1)

    def test_caching_sut_caught(self, dataset, qsl):
        report = run_caching_detection(
            lambda: CachingSUT(qsl), qsl, perf_settings())
        assert not report.passed
        assert report.speedup > 2.0
        assert "caching suspected" in report.summary()


class SeedTunedSUT(SutBase):
    """Cheater: precomputed fast path only for the official seed's
    traffic - any other seed falls back to slow execution."""

    OFFICIAL_FIRST_INDEX = None   # learned lazily

    def __init__(self, qsl, official_seed_indices):
        super().__init__("seed-tuned")
        self.qsl = qsl
        self.official = official_seed_indices
        self.position = 0

    def issue_query(self, query):
        expected = self.official[self.position % len(self.official)]
        self.position += 1
        fast = query.samples[0].index == expected
        duration = 0.0005 if fast else 0.005
        responses = [QuerySampleResponse(s.id, 0) for s in query.samples]
        self.loop.schedule_after(
            duration, lambda: self.complete(query, responses))


class TestSeedTest:
    def test_honest_sut_passes(self, dataset, qsl):
        report = run_seed_test(honest_factory(dataset, qsl), qsl,
                               perf_settings())
        assert report.passed
        assert report.worst_relative > 0.9

    def test_seed_tuned_sut_caught(self, dataset, qsl):
        # Learn the official traffic, then build the cheater around it.
        from repro.core.loadgen import run_benchmark
        settings = perf_settings()
        probe = run_benchmark(honest_factory(dataset, qsl)(), qsl, settings)
        official = [r.query.samples[0].index for r in probe.log.records()]

        report = run_seed_test(
            lambda: SeedTunedSUT(qsl, official), qsl, settings)
        assert not report.passed
        assert "seed-tuned" in report.summary()


class MemorizerSUT(SutBase):
    """Cheater: replays labels memorized from the reference data set
    regardless of which data set is actually loaded."""

    def __init__(self, qsl, memorized):
        super().__init__("memorizer")
        self.qsl = qsl
        self.memorized = memorized

    def issue_query(self, query):
        responses = [
            QuerySampleResponse(s.id, self.memorized[s.index])
            for s in query.samples
        ]
        self.loop.schedule_after(
            0.001, lambda: self.complete(query, responses))


class TestCustomDataset:
    def test_honest_model_transfers(self, dataset):
        custom = SyntheticImageNet(size=250, seed=777)

        def sut_for(qsl):
            # An honest submitter's model is built from the *reference*
            # glyph alphabet; the audit's custom set shares the alphabet
            # but regenerates images, so real inference transfers.
            model = build_glyph_classifier(qsl.dataset, "heavy")
            return ClassifierSUT(model, qsl,
                                 service_time_fn=lambda n: 0.001 * n)

        report = run_custom_dataset_test(
            sut_for, dataset, custom,
            TestSettings(scenario=Scenario.SINGLE_STREAM),
            task_type="classification", max_relative_drop=0.10,
        )
        assert report.passed

    def test_memorizer_caught(self, dataset):
        custom = SyntheticImageNet(size=250, seed=777)
        memorized = {i: dataset.get_label(i) for i in range(len(dataset))}

        def sut_for(qsl):
            return MemorizerSUT(qsl, memorized)

        report = run_custom_dataset_test(
            sut_for, dataset, custom,
            TestSettings(scenario=Scenario.SINGLE_STREAM),
            task_type="classification", max_relative_drop=0.10,
        )
        assert not report.passed
        assert report.relative_drop > 0.5
        assert "FAILED (data-set-specific behaviour)" in report.summary()


class TestCustomDatasetOtherTasks:
    """The swap works the same for the detection and translation
    checkers: a system that really infers carries its quality over, one
    tied to the reference data does not."""

    def test_translator_built_for_the_loaded_data_transfers(self):
        reference, custom = SyntheticWmt(size=120), SyntheticWmt(
            size=120, seed=99)

        def sut_for(qsl):
            return TranslatorSUT(build_cipher_translator(qsl.dataset), qsl,
                                 service_time_fn=lambda n: 0.001)

        report = run_custom_dataset_test(
            sut_for, reference, custom,
            TestSettings(scenario=Scenario.SINGLE_STREAM),
            task_type="translation", max_relative_drop=0.10)
        assert report.passed
        assert report.custom_quality > 60.0

    def test_translator_fixed_to_the_reference_cipher_is_caught(self):
        reference, custom = SyntheticWmt(size=120), SyntheticWmt(
            size=120, seed=99)
        model = build_cipher_translator(reference)

        def sut_for(qsl):
            return TranslatorSUT(model, qsl, service_time_fn=lambda n: 0.001)

        report = run_custom_dataset_test(
            sut_for, reference, custom,
            TestSettings(scenario=Scenario.SINGLE_STREAM),
            task_type="translation", max_relative_drop=0.10)
        assert not report.passed
        assert report.relative_drop > 0.9

    def test_detector_transfers(self):
        reference, custom = SyntheticCoco(size=96), SyntheticCoco(
            size=96, seed=77)

        def sut_for(qsl):
            return DetectorSUT(build_glyph_detector(qsl.dataset, "heavy"),
                               qsl, service_time_fn=lambda n: 0.001)

        # 96 images leave the mAP a few points of sampling noise.
        report = run_custom_dataset_test(
            sut_for, reference, custom,
            TestSettings(scenario=Scenario.SINGLE_STREAM),
            task_type="detection", max_relative_drop=0.15)
        assert report.passed
        assert report.custom_quality > 0.25

    def test_replayed_reference_boxes_are_caught(self):
        reference, custom = SyntheticCoco(size=96), SyntheticCoco(
            size=96, seed=77)
        memorized = {
            i: [(o.box, 0.9, o.class_id) for o in reference.get_label(i)]
            for i in range(len(reference))
        }

        report = run_custom_dataset_test(
            lambda qsl: MemorizerSUT(qsl, memorized), reference, custom,
            TestSettings(scenario=Scenario.SINGLE_STREAM),
            task_type="detection", max_relative_drop=0.15)
        assert report.reference_quality == pytest.approx(1.0)
        assert not report.passed


class TestCustomDatasetReport:
    def test_relative_drop_is_the_fraction_of_quality_lost(self):
        report = CustomDatasetReport(passed=False, reference_quality=80.0,
                                     custom_quality=60.0,
                                     max_relative_drop=0.05)
        assert report.relative_drop == pytest.approx(0.25)

    def test_a_gain_on_the_custom_set_is_a_negative_drop(self):
        report = CustomDatasetReport(passed=True, reference_quality=50.0,
                                     custom_quality=60.0,
                                     max_relative_drop=0.05)
        assert report.relative_drop == pytest.approx(-0.2)

    def test_zero_reference_quality_reports_no_drop(self):
        report = CustomDatasetReport(passed=True, reference_quality=0.0,
                                     custom_quality=0.0,
                                     max_relative_drop=0.05)
        assert report.relative_drop == 0.0

    def test_summary_reports_both_qualities_and_the_drop(self):
        report = CustomDatasetReport(passed=True, reference_quality=80.0,
                                     custom_quality=78.0,
                                     max_relative_drop=0.05)
        assert report.summary() == (
            "custom-dataset: PASSED (reference 80, custom 78, drop 2.50%)")
