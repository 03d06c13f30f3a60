"""What the report, search, audit and metric functions return at the
values every caller runs them with, pinned from the outside.

Each function here once took more parameters than its callers used; the
behaviour at the values they all pass (or leave at the default) is the
contract.  The literals were recorded from the code as it shipped with
every parameter in place:

* ``corpus_bleu`` on the corpora of ``tests/accuracy/test_metrics.py``;
* the Table IV query counts and the 2^13 round-up;
* the Server capacity search and the burst-rate search on one simulated
  device: the value and the number of probe runs;
* ``ChaosSchedule.generate`` at two seeds;
* ``render_table`` and ``to_json`` of a small registry;
* the three Section V-B audits' reports on a SUT whose latency depends
  on the sample, so that seeds and duplicates move its throughput.
"""

import hashlib

import pytest

from repro.accuracy.bleu import corpus_bleu
from repro.audit import (
    run_accuracy_verification,
    run_caching_detection,
    run_seed_test,
)
from repro.core import Scenario, Task, TestSettings
from repro.core.query import new_response
from repro.core.stats import (
    QueryRequirement,
    queries_for_confidence,
    required_queries,
    round_up_to_unit,
)
from repro.core.sut import SutBase
from repro.faults.chaos import ChaosEvent, ChaosSchedule
from repro.harness import tuning
from repro.harness.experiments import FLEET_SCALE
from repro.harness.netbench import SyntheticQSL
from repro.harness.tuning import find_max_burst_rate, find_max_server_qps
from repro.metrics import MetricsRegistry
from repro.metrics.export import render_table, to_json
from repro.sut.fleet import build_fleet, task_workload
from repro.sut.simulated import SimulatedSUT

# -- BLEU ---------------------------------------------------------------------

#: ``name -> (hypotheses, references, score)``.
BLEU = {
    "perfect": ([[1, 2, 3, 4, 5], [6, 7, 8, 9]],
                [[1, 2, 3, 4, 5], [6, 7, 8, 9]], 100.0),
    "completely_wrong": ([[10, 11, 12, 13]], [[1, 2, 3, 4]],
                         7.986788803078405),
    "scrambled": ([[4, 2, 6, 1, 5, 3]], [[1, 2, 3, 4, 5, 6]],
                  12.70331870386537),
    "short": ([[1, 2, 3, 4]], [[1, 2, 3, 4, 5, 6, 7, 8]],
              36.787944117144235),
    "longer": ([[1, 2, 3, 4, 9, 9]], [[1, 2, 3, 4]], 50.813274815461476),
    "half_match": ([[1, 2, 9, 9]], [[1, 2, 3, 4]], 31.94715521231363),
    "corpus": ([[1, 2], [3, 4, 5, 6, 7, 8]], [[1, 2], [3, 4, 5, 6, 7, 9]],
               77.70504259213554),
    "sentence_1": ([[1, 2]], [[1, 2]], 0.0),
    "sentence_2": ([[3, 4, 5, 6, 7, 8]], [[3, 4, 5, 6, 7, 9]],
                   75.98356856515926),
    "repeated": ([[1, 1, 1, 1]], [[1, 2, 3, 4]], 15.97357760615681),
    "honest": ([[1, 9, 9, 9]], [[1, 2, 3, 4]], 15.97357760615681),
}


@pytest.mark.parametrize("corpus", BLEU)
def test_corpus_bleu_scores(corpus):
    hypotheses, references, score = BLEU[corpus]
    assert corpus_bleu(hypotheses, references) == score


# -- Table IV -----------------------------------------------------------------

#: ``percentile -> (margin, Eq. 2 count, rounded count)``.
TABLE_IV = {
    0.90: (0.004999999999999999, 23886, 24576),
    0.95: (0.0025000000000000022, 50425, 57344),
    0.99: (0.0005000000000000004, 262742, 270336),
}


@pytest.mark.parametrize("percentile", TABLE_IV)
def test_table_iv_counts(percentile):
    margin, raw, rounded = TABLE_IV[percentile]
    assert required_queries(percentile) == rounded
    assert round_up_to_unit(queries_for_confidence(percentile)) == rounded
    assert QueryRequirement.for_percentile(percentile) == QueryRequirement(
        tail_latency=percentile, confidence=0.99, margin=margin,
        inferences=raw, rounded_inferences=rounded)


@pytest.mark.parametrize("count, rounded", [
    (1, 8192), (8191, 8192), (8192, 8192), (8193, 16384),
    (23886, 24576), (50425, 57344), (262742, 270336)])
def test_round_up_to_unit(count, rounded):
    assert round_up_to_unit(count) == rounded


# -- the capacity searches ----------------------------------------------------

TASK = Task.MACHINE_TRANSLATION


def make_sut():
    [system] = [s for s in build_fleet() if s.name == "dc-cpu-xeon"]
    return SimulatedSUT(system.device, task_workload(TASK),
                        batch_window=system.batch_window)


@pytest.fixture
def runs(monkeypatch):
    """The number of LoadGen runs a search makes."""
    counted = []
    run_benchmark = tuning.run_benchmark

    def counting(*args, **kwargs):
        counted.append(None)
        return run_benchmark(*args, **kwargs)

    monkeypatch.setattr(tuning, "run_benchmark", counting)
    return counted


def test_server_search_value_and_probe_count(runs):
    tuned = find_max_server_qps(make_sut, SyntheticQSL(), TASK, FLEET_SCALE,
                                seed=0)
    assert (tuned.value, tuned.probes, len(runs)) == (
        245.14643985883484, 10, 10)


def test_burst_search_value_and_probe_count(runs):
    settings = TestSettings(
        scenario=Scenario.SERVER, task=TASK, server_burst_size=4,
        server_target_qps=400.0, min_query_count=256, min_duration=0.5,
        seed=3)
    rate = find_max_burst_rate(make_sut, SyntheticQSL(), settings)
    assert (rate, len(runs)) == (259.36791093020196, 6)


# -- chaos schedules ----------------------------------------------------------

CHAOS = {
    0: (
        ChaosEvent(0.2390864451395281, 0.25108902127450006,
                   "gray-failure", "replica:1", 14.699522956233945),
        ChaosEvent(0.24998966526871386, 0.49154575650986965,
                   "zone-outage", "z0", 0.0),
        ChaosEvent(0.6726137883450198, 0.24634529399123617,
                   "zone-outage", "z0", 0.0),
        ChaosEvent(1.033251731958317, 0.22140778217004872,
                   "zone-outage", "z0", 0.0),
        ChaosEvent(1.083919079709465, 0.4327162987207415,
                   "zone-outage", "z1", 0.0),
        ChaosEvent(1.1546203796677765, 0.20718813145787612,
                   "zone-outage", "z1", 0.0),
    ),
    7: (
        ChaosEvent(0.3978774667583466, 0.34128485476143,
                   "gray-failure", "replica:2", 15.101973433722586),
        ChaosEvent(0.6570697661165608, 0.21826539352014454,
                   "gray-failure", "replica:2", 11.832189882144448),
        ChaosEvent(0.8372563003768771, 0.24319559724882484,
                   "gray-failure", "replica:2", 10.83423582098531),
        ChaosEvent(1.0119432916519486, 0.3630165517449653,
                   "gray-failure", "replica:0", 4.9117130239082805),
        ChaosEvent(1.0820196849980206, 0.46826423343381735,
                   "gray-failure", "replica:0", 7.913071958995431),
        ChaosEvent(1.1475568738794708, 0.24403261360620612,
                   "partition", "replica:0", 0.0),
    ),
}


@pytest.mark.parametrize("seed", CHAOS)
def test_generated_chaos_events(seed):
    schedule = ChaosSchedule.generate(seed, duration=2.0, replicas=4,
                                      zones=2, events=6)
    assert schedule.events == CHAOS[seed]


# -- metric export ------------------------------------------------------------

def small_registry():
    registry = MetricsRegistry()
    registry.counter("queries_total", "Queries",
                     labels=("scenario",)).labels(scenario="server").inc(3)
    registry.gauge("depth", "Queue depth").labels().set(2.0)
    latency = registry.histogram("lat_seconds", "Latency").labels()
    for value in (0.001, 0.002, 0.004, 0.05):
        latency.observe(value)
    return registry


def test_render_table_text():
    assert render_table(small_registry()) == "\n".join([
        'gauge    depth                             2',
        'counter  queries_total{scenario="server"}  3',
        '',
        'lat_seconds',
        '  count=4 mean=0.01425 min=0.001 max=0.05',
        '  p50=0.002048 p90=0.05 p99=0.05 p99.9=0.05',
        '  [0.000981 .. 0.05] |@      @      @                        @|',
    ])


def test_to_json_text():
    text = to_json(small_registry())
    assert text.startswith('{\n "metrics": [\n  {\n   "name": ')
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "72b602c95590619c6b09e08e54ecdcaa352fe2cc63d4e62690c393a8ae0d7f2c")


# -- the Section V-B audits ---------------------------------------------------

class IndexPacedSUT(SutBase):
    """Echoes each sample after 1-5 ms, by its index."""

    def __init__(self):
        super().__init__("paced")

    def issue_query(self, query):
        delay = sum(0.001 * (1 + s.index % 5) for s in query.samples)
        responses = list(map(new_response, query.samples))
        self._loop.schedule_after(
            delay, lambda: self.complete(query, responses))


def audit_settings():
    return TestSettings(scenario=Scenario.SINGLE_STREAM,
                        min_query_count=150, min_duration=0.3)


QSL = SyntheticQSL(total=256, performance=64)


def test_accuracy_verification_report():
    report = run_accuracy_verification(IndexPacedSUT, QSL, audit_settings())
    assert (report.passed, report.checked, report.mismatches,
            report.mismatch_indices) == (True, 18, 0, [])
    assert report.summary() == (
        "accuracy-verification: PASSED (0/18 logged responses mismatched)")


def test_caching_detection_report():
    report = run_caching_detection(IndexPacedSUT, QSL, audit_settings())
    assert (report.passed, report.unique_throughput,
            report.duplicate_throughput, report.speedup,
            report.threshold) == (True, 348.0278422273779, 336.3228699551567,
                                  0.9663677130044844, 1.25)
    assert report.summary() == (
        "caching-detection: PASSED (duplicate/unique speedup 0.97x, "
        "threshold 1.25x)")


def test_seed_test_report():
    report = run_seed_test(IndexPacedSUT, QSL, audit_settings())
    assert (report.passed, report.official_throughput,
            report.alternate_throughputs, report.min_relative) == (
        False, 348.0278422273779,
        [290.69767441860444, 299.40119760479024, 301.81086519114666], 0.9)
    assert report.summary() == (
        "alternate-seed: FAILED (seed-tuned behaviour) (worst "
        "alternate/official throughput 0.835, floor 0.90)")
