"""Package exports: every package hands on the same names it always did.

``PACKAGES`` is the snapshot of each package's ``__all__``, grouped by
the submodule that defines each name.  Whether a package imports its
submodules when it is imported or when a name is first read, what a
reader of ``repro.<package>`` sees must not change: the same names, each
the very object its submodule defines, ``import *`` binding exactly
``__all__``, and ``from package import submodule`` still a module.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

#: package -> submodule -> the names ``package`` re-exports from it.
PACKAGES = {
    "repro.accuracy": {
        "bleu": ("corpus_bleu",),
        "checker": ("AccuracyReport", "check_accuracy"),
        "map": ("COCO_IOU_THRESHOLDS", "mean_average_precision"),
        "topk": ("top1_accuracy",),
    },
    "repro.audit": {
        "accuracy_verification": (
            "AccuracyVerificationReport", "run_accuracy_verification",
        ),
        "caching": ("CachingDetectionReport", "run_caching_detection"),
        "custom_dataset": ("CustomDatasetReport", "run_custom_dataset_test"),
        "seeds": ("SeedTestReport", "run_seed_test"),
    },
    "repro.core": {
        "config": (
            "DEFAULT_SEED", "DEFAULT_SESSION_COUNT", "MIN_DURATION_SECONDS",
            "OFFLINE_MIN_SAMPLES", "PAPER_SCENARIOS", "SERVER_REQUIRED_RUNS",
            "SINGLE_STREAM_MIN_QUERIES", "Scenario", "Task", "TaskRules",
            "TestMode", "TestSettings", "task_rules",
        ),
        "events": (
            "Clock", "EventLoop", "RunAbortedError", "VirtualClock",
            "WallClock",
        ),
        "loadgen": ("LoadGenResult", "run_benchmark", "run_tenants"),
        "logging": ("QueryLog",),
        "metrics": (
            "ScenarioMetrics", "SessionMetrics", "StreamMetrics",
            "compute_metrics", "empty_metrics",
        ),
        "query": (
            "Query", "QueryFailure", "QueryRecord", "QuerySample",
            "QuerySampleResponse", "SessionTurn", "StreamChunk",
        ),
        "stats": (
            "QueryRequirement", "inverse_normal_cdf",
            "margin_for_tail_latency", "percentile", "queries_for_confidence",
            "required_queries", "round_up_to_unit", "table_iv",
        ),
        "sut": ("QuerySampleLibrary", "SutBase", "SystemUnderTest"),
        "trace": ("to_chrome_trace", "write_chrome_trace"),
        "validation": ("ValidityReport", "validate_run"),
    },
    "repro.datasets": {
        "base": ("Dataset",),
        "coco": ("GroundTruthObject", "SyntheticCoco"),
        "imagenet": ("SyntheticImageNet",),
        "qsl": ("DatasetQSL",),
        "wmt": ("FIRST_WORD_ID", "SyntheticWmt"),
    },
    "repro.durability": {
        "breaker": (
            "STATE_CODES", "BreakerPolicy", "BreakerState", "BreakerStats",
            "CircuitBreaker",
        ),
        "healing": ("HealingStats", "SelfHealingSUT"),
        "journal": (
            "JOURNAL_VERSION", "MAGIC", "FsyncPolicy", "JournalError",
            "JournalState", "JournalStats", "JournalWriter", "ResumeError",
            "RunJournal", "read_frames", "read_run_journal",
        ),
        "resume": (
            "ReplayStats", "ReplaySUT", "resume_run", "run_fingerprint",
        ),
    },
    "repro.faults": {
        "chaos": (
            "CHAOS_KINDS", "ChaosDecision", "ChaosEvent", "ChaosOrchestrator",
            "ChaosSchedule", "ChaosWindow",
        ),
        "filtering": ("Attempt", "AttemptSUT", "malformed_reason"),
        "plan": (
            "TRANSIENT_FAULTS", "FaultDecision", "FaultInjector", "FaultPlan",
            "FaultType",
        ),
        "resilient": ("ResilienceStats", "ResilientSUT", "RetryPolicy"),
        "sut": (
            "DegradedSUT", "FaultySUT", "OutageSUT", "Window", "WindowedSUT",
        ),
    },
    "repro.fleet": {
        "autoscaler": ("Autoscaler", "AutoscalerPolicy", "ScalingDecision"),
        "balancer": (
            "POLICY_NAMES", "BalancerPolicy", "LeastOutstandingPolicy",
            "RoundRobinPolicy", "SessionAffinityPolicy", "WeightedP99Policy",
            "ZoneLocalPolicy", "ZoneSpreadPolicy", "make_policy",
        ),
        "outlier": ("EjectionEvent", "OutlierDetector", "OutlierPolicy"),
        "replica": ("Replica", "ReplicaHealth"),
        "replicaset": ("FleetStats", "ReplicaSet"),
        "signals": (
            "BacklogSignal", "SeriesSignal", "SignalSource", "make_signal",
        ),
        "sweep": ("SweepConfig", "SweepHarness", "SweepProbe", "SweepResult"),
    },
    "repro.harness": {
        "multitenant": ("TenantSpec", "all_tenants_valid", "run_multitenant"),
        "report": ("generate_report",),
        "experiments": (
            "FLEET_SCALE", "SubmissionRecord", "relative_performance",
            "result_matrix", "results_per_processor", "results_per_task",
            "run_fleet", "run_submission", "server_offline_ratios",
        ),
        "tuning": (
            "FULL_SCALE", "QUICK_SCALE", "RunScale", "TunedResult",
            "find_max_burst_rate", "find_max_multistream_n",
            "find_max_server_qps", "measure_offline", "measure_single_stream",
        ),
    },
    "repro.metrics": {
        "export": (
            "render_histogram", "render_table", "to_json", "to_prometheus_text",
        ),
        "ledger": ("export_ledger", "exported"),
        "primitives": (
            "DEFAULT_BASE", "DEFAULT_BUCKETS", "DEFAULT_GROWTH", "Counter",
            "Gauge", "Histogram",
        ),
        "registry": (
            "CounterFamily", "GaugeFamily", "HistogramFamily", "MetricFamily",
            "MetricsRegistry", "series_key",
        ),
        "snapshot": (
            "DEFAULT_QUANTILES", "Snapshot", "SnapshotSampler", "capture",
        ),
    },
    "repro.models": {
        "family": (
            "MODEL_FAMILY", "FamilyMember", "family_points", "pareto_frontier",
        ),
        "nms": (
            "Detection", "fast_nms", "iou_matrix", "multiclass_nms", "nms",
        ),
        "quantization": (
            "NumericFormat", "QuantizationSpec", "calibrate_clip_percentile",
            "quantize_model", "quantize_tensor", "cross_layer_equalization",
        ),
        "registry": ("ModelInfo", "all_models", "model_info"),
        "training": (
            "SGD", "TrainReport", "softmax_cross_entropy",
            "train_quantization_aware",
        ),
    },
    "repro.models.arch": {
        "gnmt": ("GNMTArch", "build_gnmt"),
        "mobilenet": ("build_mobilenet_v1", "mobilenet_v1"),
        "mobilenet_v2": ("build_mobilenet_v2", "mobilenet_v2"),
        "resnet": ("build_resnet", "resnet50_v15"),
        "ssd": ("SSDArch", "build_ssd_mobilenet_v1", "build_ssd_resnet34"),
    },
    "repro.models.runtime": {
        "classifier": (
            "GlyphClassifier", "build_glyph_classifier", "evaluate_classifier",
        ),
        "detector": (
            "GlyphDetector", "build_glyph_detector", "evaluate_detector",
        ),
        "translator": (
            "CipherTranslator", "build_cipher_translator",
            "evaluate_translator",
        ),
    },
    "repro.network": {
        "client": ("NetworkStats", "NetworkSUT", "parse_address"),
        "protocol": ("VERSION", "FrameReader", "FrameType", "ProtocolError"),
        "server": (
            "InferenceServer", "ServerConfig", "ServerStartupError",
            "ServerStats",
        ),
        "simulated": ("ChannelModel", "ChannelStats", "SimulatedChannelSUT"),
    },
    "repro.parallel": {
        "pool": (
            "PoolStats", "ShardOutcome", "WorkerCrashed", "WorkerPool",
            "shard_evenly",
        ),
        "shm": ("ShmArena",),
        "sut": ("ParallelSUT",),
    },
    "repro.sessions": {
        "cache": (
            "CacheEvent", "CacheStats", "PrefixCacheSUT", "audit_cache_events",
            "audit_replica_caches", "per_replica_cache_factory",
        ),
        "driver": ("SessionDriver",),
        "replay": (
            "SESSION_TAG", "ReplayGraph", "SessionPlan", "SessionProfile",
            "TurnPlan", "replay_graph_from_settings",
        ),
    },
    "repro.streaming": {
        "model": ("ChunkEvent", "StreamModel", "StreamPlan"),
        "reassembly": ("StreamReassembler",),
        "sut": ("StreamingSUT", "streaming_echo"),
    },
    "repro.submission": {
        "artifacts": (
            "check_submission_dir", "read_submission_dir", "write_submission",
        ),
        "checker": ("CheckReport", "Issue", "Severity", "check_submission"),
        "reporting": ("format_submission",),
        "review": ("ReviewOutcome", "ReviewSummary", "review_round"),
        "schema": (
            "APPROVED_NUMERICS", "BenchmarkResult", "Category", "Division",
            "Submission", "SystemDescription",
        ),
    },
    "repro.sut": {
        "backend": (
            "ClassifierSUT", "DetectorSUT", "PreprocessingModel",
            "TranslatorSUT",
        ),
        "device": ("ComputeMotif", "DeviceModel", "ProcessorType"),
        "echo": ("EchoSUT",),
        "fleet": (
            "FIGURE_5", "TABLE_VI", "TABLE_VII", "FleetSystem", "build_fleet",
            "framework_matrix", "task_workload",
        ),
        "simulated": ("SimulatedSUT", "WorkloadProfile"),
    },
}


SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_child(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def exported(package: str):
    return [name for names in PACKAGES[package].values() for name in names]


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_all_is_the_snapshot(package):
    names = importlib.import_module(package).__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(exported(package))


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_each_name_is_its_submodules_object(package):
    module = importlib.import_module(package)
    for submodule, names in PACKAGES[package].items():
        defining = importlib.import_module(f"{package}.{submodule}")
        for name in names:
            assert getattr(module, name) is getattr(defining, name), name


def test_each_name_is_its_submodules_object_with_submodules_imported_first():
    # A submodule imported before its package's names are read is bound
    # on the package under its own name; a name that is also a
    # submodule's name (``repro.models.nms``) must still be the name.
    code = f"""
import importlib, json, pkgutil
PACKAGES = {PACKAGES!r}
for package in PACKAGES:
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        importlib.import_module(f"{{package}}.{{info.name}}")
wrong = [f"{{package}}.{{name}}"
         for package, table in PACKAGES.items()
         for submodule, names in table.items() for name in names
         if getattr(importlib.import_module(package), name)
         is not getattr(importlib.import_module(f"{{package}}.{{submodule}}"),
                        name)]
print(json.dumps(wrong))
"""
    assert json.loads(run_child(code)) == []


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_import_star_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(exported(package))


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_dir_lists_every_export(package):
    assert set(exported(package)) <= set(dir(importlib.import_module(package)))


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_an_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export
    assert not hasattr(module, "no_such_export")


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_from_package_import_submodule(package):
    names = set(exported(package))
    for submodule in PACKAGES[package]:
        if submodule in names:  # the name wins: repro.models.nms is nms()
            continue
        namespace = {}
        exec(f"from {package} import {submodule}", namespace)
        assert namespace[submodule] is sys.modules[f"{package}.{submodule}"]
