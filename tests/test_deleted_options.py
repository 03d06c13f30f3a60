"""Options the unset-option lint retired stay retired.

Each was a constructor, function or method option no workload set.  It
is now a constant at the value every workload ran with, and the callable
refuses the old keyword outright: a caller that still passes one gets a
``TypeError`` naming it (or, where no option is left, saying the
constructor takes none), never a silently ignored setting.
"""

import importlib

import pytest

from repro.accuracy.bleu import corpus_bleu
from repro.audit import (
    run_accuracy_verification,
    run_caching_detection,
    run_seed_test,
)
from repro.core.events import VirtualClock
from repro.core.stats import (
    QueryRequirement,
    queries_for_confidence,
    required_queries,
    round_up_to_unit,
)
from repro.core.trace import to_chrome_trace, write_chrome_trace
from repro.harness.experiments import run_fleet, run_submission
from repro.harness.multitenant import run_multitenant
from repro.harness.netbench import parallel_echo_backend, run_over_localhost
from repro.harness.report import generate_report, results_listing
from repro.harness.tuning import (
    RunScale,
    find_max_burst_rate,
    find_max_server_qps,
)
from repro.metrics.export import render_histogram, render_table, to_json
from repro.sut.device import DeviceModel

from repro.faults.chaos import ChaosOrchestrator, ChaosSchedule
from repro.faults.plan import FaultPlan
from repro.faults.resilient import RetryPolicy
from repro.fleet.autoscaler import AutoscalerPolicy
from repro.fleet.balancer import ZoneLocalPolicy
from repro.fleet.outlier import OutlierPolicy
from repro.fleet.replicaset import ReplicaSet
from repro.metrics import MetricsRegistry
from repro.metrics.snapshot import SnapshotSampler, capture
from repro.network.server import InferenceServer
from repro.network.simulated import ChannelModel
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import ShmArena
from repro.parallel.sut import ParallelSUT
from repro.sessions.cache import PrefixCacheSUT, per_replica_cache_factory
from repro.sessions.driver import SessionDriver
from repro.streaming.model import StreamModel
from repro.sut.backend import ClassifierSUT, DetectorSUT, TranslatorSUT
from repro.sut.echo import EchoSUT


def _echo(*_):
    return EchoSUT(latency=0.001)


#: ``"Owner.option"`` -> a call that passes the deleted keyword.
PASSES = {
    "VirtualClock.start": lambda: VirtualClock(start=0.0),
    "StreamModel.jitter": lambda: StreamModel(jitter=0.0),
    "StreamModel.tokens_per_chunk": lambda: StreamModel(tokens_per_chunk=1),
    "ChannelModel.bandwidth": lambda: ChannelModel(bandwidth=None),
    "ChannelModel.reorder_spread":
        lambda: ChannelModel(reorder_spread=0.002),
    "InferenceServer.qsl": lambda: InferenceServer(_echo(), qsl=None),
    "MetricsRegistry.namespace": lambda: MetricsRegistry(namespace=""),
    "SnapshotSampler.quantiles":
        lambda: SnapshotSampler(MetricsRegistry(), 0.1, quantiles=()),
    "capture.quantiles":
        lambda: capture(MetricsRegistry(), 0.0, quantiles=()),
    "WorkerPool.start_method":
        lambda: WorkerPool(_echo, 1, start_method="fork"),
    "ShmArena.capacity": lambda: ShmArena("arena", capacity=1 << 16),
    "ParallelSUT.transport":
        lambda: ParallelSUT(_echo, None, transport="shm"),
    "ParallelSUT.policy": lambda: ParallelSUT(_echo, None, policy=None),
    "FaultPlan.duplicate_lag": lambda: FaultPlan(duplicate_lag=0.001),
    "RetryPolicy.backoff_factor": lambda: RetryPolicy(backoff_factor=2.0),
    "ChaosOrchestrator.period":
        lambda: ChaosOrchestrator(ChaosSchedule(()), period=0.025),
    "AutoscalerPolicy.step": lambda: AutoscalerPolicy(step=1),
    "ZoneLocalPolicy.local_zone": lambda: ZoneLocalPolicy(local_zone="z0"),
    "ReplicaSet.min_per_zone": lambda: ReplicaSet(_echo, min_per_zone=0),
    "ReplicaSet.min_replicas": lambda: ReplicaSet(_echo, min_replicas=1),
    "OutlierPolicy.latency_multiplier":
        lambda: OutlierPolicy(latency_multiplier=3.0),
    "OutlierPolicy.failure_rate_threshold":
        lambda: OutlierPolicy(failure_rate_threshold=0.5),
    "OutlierPolicy.failure_window_ticks":
        lambda: OutlierPolicy(failure_window_ticks=8),
    "OutlierPolicy.probe_count": lambda: OutlierPolicy(probe_count=3),
    "SessionDriver.graph": lambda: SessionDriver(graph=None),
    "PrefixCacheSUT.miss_latency_per_token":
        lambda: PrefixCacheSUT(_echo(), miss_latency_per_token=50e-6),
    "PrefixCacheSUT.hit_latency_per_token":
        lambda: PrefixCacheSUT(_echo(), hit_latency_per_token=2e-6),
    "per_replica_cache_factory.miss_latency_per_token":
        lambda: per_replica_cache_factory(miss_latency_per_token=50e-6),
    "per_replica_cache_factory.hit_latency_per_token":
        lambda: per_replica_cache_factory(hit_latency_per_token=2e-6),
    "ClassifierSUT.batch_size":
        lambda: ClassifierSUT(None, None, batch_size=64),
    "DetectorSUT.batch_size": lambda: DetectorSUT(None, None, batch_size=16),
    "DetectorSUT.preprocessing":
        lambda: DetectorSUT(None, None, preprocessing=None),
    "TranslatorSUT.preprocessing":
        lambda: TranslatorSUT(None, None, preprocessing=None),
    # Function and method options; each call fails before its body runs.
    "find_max_server_qps.start_qps":
        lambda: find_max_server_qps(None, None, None, start_qps=1.0),
    "find_max_server_qps.max_probes":
        lambda: find_max_server_qps(None, None, None, max_probes=40),
    "find_max_server_qps.min_qps":
        lambda: find_max_server_qps(None, None, None, min_qps=1e-3),
    "find_max_burst_rate.relative_tolerance":
        lambda: find_max_burst_rate(None, None, None,
                                    relative_tolerance=0.1),
    "find_max_burst_rate.max_probes":
        lambda: find_max_burst_rate(None, None, None, max_probes=30),
    "find_max_burst_rate.min_rate":
        lambda: find_max_burst_rate(None, None, None, min_rate=1e-3),
    "run_submission.scale":
        lambda: run_submission(None, None, None, scale=None),
    "run_fleet.scale": lambda: run_fleet(scale=None),
    "run_multitenant.pool_size":
        lambda: run_multitenant(None, [], pool_size=1_024),
    "parallel_echo_backend.qsl": lambda: parallel_echo_backend(qsl=None),
    "parallel_echo_backend.max_batch":
        lambda: parallel_echo_backend(max_batch=8),
    "run_over_localhost.server_config":
        lambda: run_over_localhost(None, None, None, server_config=None),
    "run_over_localhost.snapshot_period":
        lambda: run_over_localhost(None, None, None, snapshot_period=None),
    "generate_report.listing_limit":
        lambda: generate_report([], listing_limit=40),
    "results_listing.limit": lambda: results_listing([], limit=40),
    "run_accuracy_verification.log_probability":
        lambda: run_accuracy_verification(None, None, None,
                                          log_probability=0.1),
    "run_caching_detection.speedup_threshold":
        lambda: run_caching_detection(None, None, None,
                                      speedup_threshold=1.25),
    "run_seed_test.alternate_seeds":
        lambda: run_seed_test(None, None, None, alternate_seeds=()),
    "run_seed_test.min_relative":
        lambda: run_seed_test(None, None, None, min_relative=0.9),
    "corpus_bleu.max_order": lambda: corpus_bleu([], [], max_order=4),
    "corpus_bleu.smooth": lambda: corpus_bleu([], [], smooth="exp"),
    "round_up_to_unit.unit": lambda: round_up_to_unit(1, unit=8192),
    "required_queries.confidence":
        lambda: required_queries(0.9, confidence=0.99),
    "queries_for_confidence.confidence":
        lambda: queries_for_confidence(0.9, confidence=0.99),
    "queries_for_confidence.margin":
        lambda: queries_for_confidence(0.9, margin=0.005),
    "QueryRequirement.for_percentile.confidence":
        lambda: QueryRequirement.for_percentile(0.9, confidence=0.99),
    "to_chrome_trace.process_name":
        lambda: to_chrome_trace(None, process_name="SUT"),
    "write_chrome_trace.process_name":
        lambda: write_chrome_trace(None, None, process_name="SUT"),
    "to_json.indent": lambda: to_json(None, indent=1),
    "render_table.width": lambda: render_table(None, width=40),
    "render_histogram.width":
        lambda: render_histogram("h", None, width=40),
    "ChaosSchedule.generate.kinds":
        lambda: ChaosSchedule.generate(0, duration=1.0, replicas=1,
                                       kinds=()),
    "ChaosSchedule.generate.severity_range":
        lambda: ChaosSchedule.generate(0, duration=1.0, replicas=1,
                                       severity_range=(4.0, 16.0)),
    "DeviceModel.best_offline_throughput.motif":
        lambda: DeviceModel.best_offline_throughput(None, 1.0, motif=None),
    "DeviceModel.throughput_at_batch.motif":
        lambda: DeviceModel.throughput_at_batch(None, 1.0, 1, motif=None),
    "DeviceModel.energy_per_sample.motif":
        lambda: DeviceModel.energy_per_sample(None, 1.0, 1, motif=None),
    "DeviceModel.service_time.motif":
        lambda: DeviceModel.service_time(None, 1.0, 1, motif=None),
    "DeviceModel.dispatch_energy.motif":
        lambda: DeviceModel.dispatch_energy(None, 1.0, 1, motif=None),
    "ShmArena.close.unlink": lambda: ShmArena.close(None, unlink=True),
}

#: ``(module, constant)`` -> the default the deleted option had.
CONSTANTS = {
    ("repro.network.simulated", "REORDER_SPREAD"): 0.002,
    ("repro.parallel.shm", "_INITIAL_CAPACITY"): 1 << 16,
    ("repro.faults.plan", "DUPLICATE_LAG"): 0.001,
    ("repro.faults.resilient", "_BACKOFF_FACTOR"): 2.0,
    ("repro.faults.chaos", "ChaosOrchestrator.period"): 0.025,
    ("repro.fleet.outlier", "_LATENCY_MULTIPLIER"): 3.0,
    ("repro.fleet.outlier", "_FAILURE_RATE_THRESHOLD"): 0.5,
    ("repro.fleet.outlier", "_FAILURE_WINDOW_TICKS"): 8,
    ("repro.fleet.outlier", "_PROBE_COUNT"): 3,
    ("repro.sessions.cache", "_MISS_LATENCY_PER_TOKEN"): 50e-6,
    ("repro.sessions.cache", "_HIT_LATENCY_PER_TOKEN"): 2e-6,
    ("repro.sut.backend", "_CLASSIFIER_BATCH"): 64,
    ("repro.sut.backend", "_DETECTOR_BATCH"): 16,
    ("repro.harness.tuning", "START_QPS"): 1.0,
    ("repro.harness.tuning", "MAX_PROBES"): 40,
    ("repro.harness.tuning", "MIN_RATE"): 1e-3,
    ("repro.harness.tuning", "BURST_TOLERANCE"): 0.1,
    ("repro.harness.tuning", "BURST_MAX_PROBES"): 30,
    ("repro.harness.experiments", "FLEET_SCALE"):
        RunScale(query_count_factor=1.0 / 256.0, min_duration=2.0,
                 server_runs=1),
    ("repro.harness.multitenant", "POOL_SIZE"): 1_024,
    ("repro.harness.report", "LISTING_LIMIT"): 40,
    ("repro.audit.accuracy_verification", "LOG_PROBABILITY"): 0.10,
    ("repro.audit.caching", "SPEEDUP_THRESHOLD"): 1.25,
    ("repro.audit.seeds", "ALTERNATE_SEEDS"): (0xA17E12, 0xA17E13, 0xA17E14),
    ("repro.audit.seeds", "MIN_RELATIVE"): 0.90,
    ("repro.accuracy.bleu", "MAX_NGRAM_ORDER"): 4,
    ("repro.core.stats", "CONFIDENCE"): 0.99,
    ("repro.core.stats", "QUERY_ROUNDING_UNIT"): 8192,
    ("repro.metrics.export", "SKETCH_WIDTH"): 40,
    ("repro.faults.chaos", "CHAOS_KINDS"):
        ("zone-outage", "gray-failure", "partition"),
    ("repro.faults.chaos", "SEVERITY_RANGE"): (4.0, 16.0),
}


@pytest.mark.parametrize("option", sorted(PASSES))
def test_a_deleted_option_is_refused_by_name(option):
    keyword = option.rsplit(".", 1)[1]
    with pytest.raises(TypeError,
                       match=f"'{keyword}'|takes no arguments"):
        PASSES[option]()


@pytest.mark.parametrize("module,constant", sorted(CONSTANTS),
                         ids=[f"{m}.{c}" for m, c in sorted(CONSTANTS)])
def test_a_deleted_option_lives_on_at_its_old_default(module, constant):
    value = importlib.import_module(module)
    for attribute in constant.split("."):
        value = getattr(value, attribute)
    expected = CONSTANTS[module, constant]
    assert type(value) is type(expected) and value == expected
