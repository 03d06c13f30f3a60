"""Options the unset-option lint retired stay retired.

Each was a constructor option no workload set.  It is now a constant at
the value every workload ran with, and the constructor refuses the old
keyword outright: a caller that still passes one gets a ``TypeError``
naming it (or, where no option is left, saying the constructor takes
none), never a silently ignored setting.
"""

import importlib

import pytest

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
