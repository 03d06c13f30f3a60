"""Table I: reference-model parameters, GOPs, and quality targets.

Regenerates every row of the paper's Table I from the architecture
definitions and asserts the published characteristics.  The quality
targets are also exercised end to end: per task family, an INT8 copy of
the runnable reference model answers a LoadGen accuracy-mode run, and
the accuracy script holds it to its Table I target (the family's
quality factor times the FP32 model's quality on the same samples).
"""

import pytest

from repro.accuracy import check_accuracy
from repro.core import Scenario, Task, TestMode, TestSettings, run_benchmark
from repro.datasets import (
    DatasetQSL,
    SyntheticCoco,
    SyntheticImageNet,
    SyntheticWmt,
)
from repro.harness.tables import format_table_i
from repro.models.quantization import NumericFormat, QuantizationSpec
from repro.models.registry import all_models, model_info
from repro.models.runtime import (
    build_cipher_translator,
    build_glyph_classifier,
    build_glyph_detector,
    evaluate_classifier,
    evaluate_detector,
    evaluate_translator,
)
from repro.sut.backend import ClassifierSUT, DetectorSUT, TranslatorSUT

#: (parameters, GOPs/input) straight from the paper.
TABLE_I = {
    Task.IMAGE_CLASSIFICATION_HEAVY: (25.6e6, 8.2),
    Task.IMAGE_CLASSIFICATION_LIGHT: (4.2e6, 1.138),
    Task.OBJECT_DETECTION_HEAVY: (36.3e6, 433.0),
    Task.OBJECT_DETECTION_LIGHT: (6.91e6, 2.47),
    Task.MACHINE_TRANSLATION: (210e6, None),
}


@pytest.mark.parametrize("task", list(Task))
def test_table1_row(benchmark, task):
    info = model_info(task)
    params_expected, gops_expected = TABLE_I[task]

    def build_and_count():
        arch = info.build_arch()
        if task is Task.MACHINE_TRANSLATION:
            return arch.param_count(), None
        params = arch.param_count(info.input_shape)
        gops = 2 * arch.macs(info.input_shape) / 1e9
        return params, gops

    params, gops = benchmark(build_and_count)
    assert params == pytest.approx(params_expected, rel=0.11)
    if gops_expected is not None:
        assert gops == pytest.approx(gops_expected, rel=0.05)


def test_table1_quality_targets(benchmark):
    rows = benchmark(lambda: list(all_models()))
    targets = {r.task: (r.quality_target_factor, r.fp32_quality) for r in rows}
    assert targets[Task.IMAGE_CLASSIFICATION_HEAVY] == (0.99, 76.456)
    assert targets[Task.IMAGE_CLASSIFICATION_LIGHT] == (0.98, 71.676)
    assert targets[Task.OBJECT_DETECTION_HEAVY] == (0.99, 0.20)
    assert targets[Task.OBJECT_DETECTION_LIGHT] == (0.99, 0.22)
    assert targets[Task.MACHINE_TRANSLATION] == (0.99, 23.9)


#: Per task family: (accuracy-script task type, Table I task, data set,
#: runnable reference model, its direct evaluator, the SUT that runs it).
FAMILIES = [
    ("classification", Task.IMAGE_CLASSIFICATION_HEAVY, SyntheticImageNet,
     build_glyph_classifier, evaluate_classifier, ClassifierSUT),
    ("detection", Task.OBJECT_DETECTION_HEAVY, SyntheticCoco,
     build_glyph_detector, evaluate_detector, DetectorSUT),
    ("translation", Task.MACHINE_TRANSLATION, SyntheticWmt,
     build_cipher_translator, evaluate_translator, TranslatorSUT),
]


@pytest.mark.parametrize(
    "task_type, task, dataset_class, build, evaluate, sut_class", FAMILIES,
    ids=[family[0] for family in FAMILIES])
def test_table1_quality_target_in_accuracy_mode(
        benchmark, task_type, task, dataset_class, build, evaluate,
        sut_class):
    dataset = dataset_class(size=120)
    qsl = DatasetQSL(dataset)
    model = build(dataset)
    target = model_info(task).quality_target_factor * evaluate(
        model, dataset, range(len(dataset)))
    int8 = model.quantized(QuantizationSpec(NumericFormat.INT8))

    def accuracy_run():
        sut = sut_class(int8, qsl, service_time_fn=lambda n: 0.001 * n)
        result = run_benchmark(sut, qsl, TestSettings(
            scenario=Scenario.SINGLE_STREAM, mode=TestMode.ACCURACY))
        return check_accuracy(result, dataset, task_type, target)

    report = benchmark.pedantic(accuracy_run, rounds=1, iterations=1)
    print("\n  " + report.summary())
    assert report.sample_count == len(dataset)
    assert report.passed


def test_table1_renders(benchmark):
    table = benchmark(format_table_i)
    print("\n" + table)
    for name in ("ResNet-50 v1.5", "MobileNet-v1 224", "SSD-ResNet-34",
                 "SSD-MobileNet-v1", "GNMT"):
        assert name in table
