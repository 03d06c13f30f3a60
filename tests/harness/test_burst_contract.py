"""Burst mode as literals: what a burst-mode run issues, when it
completes, what the referee says, and what the capacity search finds.

Burst mode fires ``size`` single-sample queries at one instant, with
the burst instants a Poisson process.  Every run here goes through
:func:`burst_run` and every search through :func:`burst_capacity`; the
literals below were recorded with the shipped burst mode and hold for
whatever API those two helpers call.

* The columns - issue times, completion times, verdict and reasons - on
  the 8,192-sample library with 1,024 loaded that
  ``benchmarks/test_ext_burst_mode.py`` uses, four burst sizes at two
  rates.  Which 1,024 samples are loaded is not pinned: the simulated
  device's cost does not depend on it.
* The whole ``run_fingerprint`` where the library is loaded in full, so
  every loader holds the same samples.
* The three capacity searches of the ablation, value and probe count.
"""

import hashlib

import pytest

from repro.core import Task
from repro.durability import run_fingerprint
from repro.sut.device import DeviceModel, ProcessorType
from repro.sut.simulated import SimulatedSUT, WorkloadProfile

TASK = Task.IMAGE_CLASSIFICATION_HEAVY
DEVICE = DeviceModel(
    name="burst-gpu", processor=ProcessorType.GPU, peak_gops=40_000.0,
    base_utilization=0.06, saturation_gops=150.0, overhead=0.5e-3,
    max_batch=64,
)
WORKLOAD = WorkloadProfile(8.2)
#: The seed of every run and search here.
SEED = 0xB0B5


class Library:
    name = "burst"

    def __init__(self, total, performance):
        self.total_sample_count = total
        self.performance_sample_count = performance

    def load_samples(self, indices):
        pass

    def unload_samples(self, indices):
        pass

    def get_sample(self, index):
        return None


def burst_run(size, bursts_per_second, qsl):
    """One run on the simulated GPU: ``size`` queries a burst at
    ``bursts_per_second``, at least 1,000 queries and 1.5 s."""
    from repro.core import Scenario, TestSettings, run_benchmark

    return run_benchmark(
        SimulatedSUT(DEVICE, WORKLOAD), qsl, TestSettings(
            scenario=Scenario.SERVER, task=TASK, server_burst_size=size,
            server_target_qps=size * bursts_per_second,
            min_query_count=1_000, min_duration=1.5, seed=SEED))


def burst_capacity(size):
    """``find_max_burst_rate`` from 10 bursts/s, as the ablation runs
    it: ``(qps, probes)``, one fresh SUT per probe."""
    from repro.core import Scenario, TestSettings
    from repro.harness.tuning import find_max_burst_rate

    suts = []

    def fresh():
        suts.append(SimulatedSUT(DEVICE, WORKLOAD))
        return suts[-1]

    found = find_max_burst_rate(fresh, Library(8192, 1024), TestSettings(
        scenario=Scenario.SERVER, task=TASK, server_burst_size=size,
        server_target_qps=size * 10.0, min_query_count=1_000,
        min_duration=1.5, seed=SEED))
    return found, len(suts)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def over(percent):
    return f"{percent:.4f}% of queries exceeded the 15 ms bound (budget 1%)"


#: ``(size, bursts/s) -> (queries, digest of the issue and completion
#: times in issue order, valid, reasons)``.
COLUMNS = {
    (1, 10.0): (1000, "55f62e8064bcf490", True, []),
    (3, 10.0): (1002, "bbb8fa2e98aa1df9", True, []),
    (16, 10.0): (1008, "7a8db9a79a16239c", True, []),
    (64, 10.0): (1600, "7873079923995f24", False, [over(94.75)]),
    (1, 150.0): (1000, "fc496db8fc1a446a", True, []),
    (3, 150.0): (1002, "a11b0b83dcea2c7a", True, []),
    (16, 150.0): (3600, "56274b912a702687", False, [over(18.2222)]),
    (64, 150.0): (14400, "71cd31236ee076fe", False, [over(99.9931)]),
}


@pytest.mark.parametrize("size, rate", COLUMNS)
def test_columns_and_verdict(size, rate):
    result = burst_run(size, rate, Library(8192, 1024))
    records = result.log.records()
    assert (
        len(records),
        digest([(r.issue_time, r.completion_time) for r in records]),
        result.valid,
        result.validity.reasons,
    ) == COLUMNS[size, rate]


#: ``(size, bursts/s) -> digest of run_fingerprint`` over a library
#: loaded in full.
FINGERPRINTS = {
    (1, 10.0): "2a2026a177441a1e",
    (3, 10.0): "59f8ca4ba416c432",
    (3, 33.3): "b4c5645b5c1c09c3",
    (16, 10.0): "d4f0d6b1ae40d986",
    (64, 10.0): "2b3bf04a0f5cb4fb",
    (3, 150.0): "ee6104deb391319a",
}


@pytest.mark.parametrize("size, rate", FINGERPRINTS)
def test_fingerprint_over_a_fully_loaded_library(size, rate):
    result = burst_run(size, rate, Library(1024, 1024))
    assert result.loaded_indices == list(range(1024))
    assert digest(run_fingerprint(result)) == FINGERPRINTS[size, rate]


def test_queries_of_a_burst_share_their_instant():
    records = burst_run(16, 10.0, Library(1024, 1024)).log.records()
    instants = {}
    for record in records:
        instants.setdefault(record.issue_time, []).append(record)
    assert {len(burst) for burst in instants.values()} == {16}
    assert all(r.scheduled_time == r.issue_time for r in records)


#: burst size -> (capacity in queries/s or None, probes).
CAPACITIES = {
    4: (3620.3867196751235, 9),
    16: (1395.84989781153, 7),
    64: (None, 7),
}


@pytest.mark.parametrize("size", CAPACITIES)
def test_ablation_capacity(size):
    assert burst_capacity(size) == CAPACITIES[size]
