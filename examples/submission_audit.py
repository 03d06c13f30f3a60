"""Submission + peer review: the checker and the Section V-B audits.

Assembles a complete closed-division submission (performance run,
accuracy run, system description), pushes it through the submission
checker, writes it out as the on-disk artifacts a submitter uploads and
checks that directory the way ``repro check`` does, then runs the audit
suite against both the honest system and a result-caching cheater -
which the on-the-fly caching detection catches.

Run:  python examples/submission_audit.py   (~20 seconds)
"""

import sys
import tempfile

from repro.accuracy import check_accuracy
from repro.audit import (
    run_accuracy_verification,
    run_caching_detection,
    run_seed_test,
)
from repro.core import Scenario, Task, TestMode, TestSettings, run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.datasets import DatasetQSL, SyntheticImageNet
from repro.models.quantization import NumericFormat
from repro.models.registry import model_info
from repro.models.runtime import build_glyph_classifier, evaluate_classifier
from repro.submission import (
    BenchmarkResult,
    Category,
    Division,
    Submission,
    SystemDescription,
    check_submission,
    check_submission_dir,
    format_submission,
    write_submission,
)
from repro.sut import ClassifierSUT


class CachingCheater(SutBase):
    """Memoizes results by sample index: repeats complete 100x faster."""

    def __init__(self, qsl, model):
        super().__init__("caching-cheater")
        self.qsl = qsl
        self.model = model
        self.cache = {}

    def issue_query(self, query):
        duration = 0.0
        responses = []
        for sample in query.samples:
            if sample.index in self.cache:
                duration += 0.00002
            else:
                self.cache[sample.index] = self.model.predict_one(
                    self.qsl.get_sample(sample.index))
                duration += 0.002
            responses.append(
                QuerySampleResponse(sample.id, self.cache[sample.index]))
        self.loop.schedule_after(
            duration, lambda: self.complete(query, responses))


def main() -> int:
    dataset = SyntheticImageNet(size=400)
    qsl = DatasetQSL(dataset)
    model = build_glyph_classifier(dataset, variant="heavy")
    task = Task.IMAGE_CLASSIFICATION_HEAVY

    def honest_sut():
        return ClassifierSUT(model, qsl, service_time_fn=lambda n: 0.002 * n)

    # ---- build the submission -------------------------------------------
    perf_settings = TestSettings(
        scenario=Scenario.SINGLE_STREAM, task=task,
        min_query_count=1_024, min_duration=3.0,
    )
    performance = run_benchmark(honest_sut(), qsl, perf_settings)

    fp32 = evaluate_classifier(model, dataset)
    target = model_info(task).quality_target_factor * fp32
    accuracy_run = run_benchmark(
        honest_sut(), qsl,
        perf_settings.with_overrides(mode=TestMode.ACCURACY))
    accuracy = check_accuracy(accuracy_run, dataset, "classification", target)

    submission = Submission(
        system=SystemDescription(
            name="example-workstation", submitter="repro-examples",
            processor="CPU", accelerator_count=0, host_cpu_count=8,
            software_stack="repro-numpy 0.5", memory_gb=32.0,
            numerics=(NumericFormat.FP32,),
        ),
        division=Division.CLOSED,
        category=Category.AVAILABLE,
        results=[BenchmarkResult(task=task, scenario=Scenario.SINGLE_STREAM,
                                 performance=performance, accuracy=accuracy)],
    )
    print(format_submission(submission))

    report = check_submission(submission)
    print(f"\nsubmission checker: "
          f"{'CLEARED' if report.passed else 'REJECTED'} "
          f"({len(report.issues)} issues)")
    for issue in report.issues:
        print(" ", issue)

    # ---- the artifacts, as uploaded for peer review (Section V-A) -------
    with tempfile.TemporaryDirectory() as directory:
        root = write_submission(submission, directory)
        on_disk = check_submission_dir(root)
        print(f"\nsubmission directory (repro check): "
              f"{'CLEARED' if on_disk.passed else 'REJECTED'} "
              f"({len(on_disk.issues)} issues)")
        for issue in on_disk.issues:
            print(" ", issue)

    # ---- the Section V-B audits ------------------------------------------
    audit_settings = TestSettings(scenario=Scenario.SINGLE_STREAM,
                                  min_query_count=200, min_duration=0.5)
    print("\naudits against the honest system:")
    print(" ", run_accuracy_verification(honest_sut, qsl,
                                         audit_settings).summary())
    print(" ", run_caching_detection(honest_sut, qsl,
                                     audit_settings).summary())
    print(" ", run_seed_test(honest_sut, qsl, audit_settings).summary())

    print("\naudits against a result-caching cheater:")
    cheat = run_caching_detection(
        lambda: CachingCheater(qsl, model), qsl, audit_settings)
    print(" ", cheat.summary())
    return 0 if report.passed and on_disk.passed else 1


if __name__ == "__main__":
    sys.exit(main())
