"""The snapshot stream is behaviour: which series a capture holds, in
what order, under what key, and when each first appears.

``capture`` is compared against a reference built the long way round,
from ``family.series()`` and ``series_key()`` - the exporters' view of
the registry - and a zoned session fleet under chaos is sampled every
50 ms twice at one seed, with the hash of the whole stream on record.
"""

import hashlib

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.faults import ChaosEvent, ChaosOrchestrator, ChaosSchedule
from repro.fleet import OutlierDetector, OutlierPolicy, ReplicaSet
from repro.harness.netbench import SyntheticQSL
from repro.metrics import MetricsRegistry, capture
from repro.metrics.primitives import Histogram
from repro.metrics.registry import series_key
from repro.metrics.snapshot import DEFAULT_QUANTILES
from repro.sessions import per_replica_cache_factory
from repro.sut.echo import EchoSUT


def reference_values(registry):
    values = {}
    for family in registry.collect():
        for labels, child in family.series():
            key = series_key(family.name, labels)
            if isinstance(child, Histogram):
                values[f"{key}_count"] = float(child.count)
                values[f"{key}_sum"] = child.sum
                for suffix, q in DEFAULT_QUANTILES:
                    values[f"{key}_{suffix}"] = child.percentile(q)
            else:
                values[key] = child.value
    return values


def assert_capture_matches(registry):
    snap = capture(registry, time=2.5)
    assert snap.time == 2.5
    # Same keys, same order, same values - not just the same mapping.
    assert list(snap.values.items()) == list(
        reference_values(registry).items())
    return snap


def mixed_registry():
    """One family of every shape the tree registers."""
    reg = MetricsRegistry()
    reg.counter("plain_total", "unlabelled counter").inc(3)
    reg.gauge("depth", "write-style gauge").set(2.5)
    state = {"pull": 7, "r0": 11, "r1": 13}
    reg.gauge("pulled", "callback gauge", fn=lambda: state["pull"])
    by_kind = reg.counter("by_kind_total", "labelled", labels=("zone", "kind"))
    by_kind.labels(zone="b", kind="x").inc()
    by_kind.labels(kind="y", zone="a").inc(2)
    resident = reg.gauge("resident", "labels_fn children", labels=("replica",))
    resident.labels_fn(lambda: state["r1"], replica=1)
    resident.labels_fn(lambda: state["r0"], replica=0)
    resident.labels(replica=2).set(5)
    lat = reg.histogram("lat_seconds", "unlabelled histogram").labels()
    for value in (0.001, 0.002, 0.004, 0.008, 0.5):
        lat.observe(value)
    reg.histogram("idle_seconds", "never observed")
    per = reg.histogram("per_seconds", "labelled histogram",
                        labels=("scenario",))
    for i in range(200):
        per.labels(scenario="server").observe(1e-4 * (i + 1))
    per.labels(scenario="one").observe(0.25)
    reg.counter("untouched_total", "labelled, no child yet", labels=("x",))
    return reg, state


def test_capture_equals_the_reference_built_from_series_and_series_key():
    reg, state = mixed_registry()
    snap = assert_capture_matches(reg)
    assert list(snap.values)[:4] == [
        'by_kind_total{zone="b",kind="x"}', 'by_kind_total{zone="a",kind="y"}',
        "depth", "idle_seconds_count"]
    assert snap.values['resident{replica="1"}'] == 13.0
    assert [k for k in snap.values if k.startswith("resident")] == [
        'resident{replica="1"}', 'resident{replica="0"}',
        'resident{replica="2"}']
    assert not any(k.startswith("untouched_total") for k in snap.values)
    # Callback gauges are pulled at capture, not at creation.
    state.update(pull=8, r0=12)
    later = assert_capture_matches(reg)
    assert later.values["pulled"] == 8.0
    assert later.values['resident{replica="0"}'] == 12.0


def test_an_empty_histogram_captures_zeros_for_every_quantile():
    reg = MetricsRegistry()
    reg.histogram("idle_seconds")
    snap = assert_capture_matches(reg)
    assert snap.values == {
        "idle_seconds_count": 0.0, "idle_seconds_sum": 0.0,
        "idle_seconds_p50": 0.0, "idle_seconds_p90": 0.0,
        "idle_seconds_p99": 0.0, "idle_seconds_p999": 0.0}


def test_a_child_created_between_two_captures_appears_in_the_second():
    reg, _ = mixed_registry()
    family = reg.get("by_kind_total")
    gauge = reg.get("resident")
    before = assert_capture_matches(reg)
    family.labels(zone="c", kind="z").inc(4)
    gauge.labels_fn(lambda: 17, replica=9)
    reg.get("per_seconds").labels(scenario="late").observe(0.003)
    late_family = reg.counter("zz_late_total", labels=("replica",))
    late_family.labels(replica=3).inc()
    after = assert_capture_matches(reg)
    new = [k for k in after.values if k not in before.values]
    assert new == [
        'by_kind_total{zone="c",kind="z"}',
        'per_seconds{scenario="late"}_count',
        'per_seconds{scenario="late"}_sum',
        'per_seconds{scenario="late"}_p50',
        'per_seconds{scenario="late"}_p90',
        'per_seconds{scenario="late"}_p99',
        'per_seconds{scenario="late"}_p999',
        'resident{replica="9"}', 'zz_late_total{replica="3"}']
    # Existing series keep their place; the new ones slot in after
    # their family's older children.
    assert [k for k in after.values if k in before.values] == list(
        before.values)
    # Asking again for an existing child creates nothing; a callback
    # child follows the newest callback bound to it.
    family.labels(zone="c", kind="z").inc()
    gauge.labels_fn(lambda: 18, replica=9)
    again = assert_capture_matches(reg)
    assert list(again.values) == list(after.values)
    assert again.values['resident{replica="9"}'] == 18.0
    assert again.values['by_kind_total{zone="c",kind="z"}'] == 5.0


# -- a whole run's stream --------------------------------------------------------

SESSIONS = 200
SESSION_QPS = 200.0

#: sha256 of the stream below at seed 3, recorded at commit 941f26a.
STREAM_SHA256 = (
    "ea34f0bafcddb4a4d3db7496f0383383f0c6a2ebc0a7d47f8c8efb748ca16ff9")


def snapshot_stream(seed):
    """A 4-replica, 2-zone session fleet with per-replica caches, a gray
    failure, a zone outage and the outlier detector, sampled every 50 ms
    of run time: ``[(time, ((key, value), ...)), ...]``."""
    registry = MetricsRegistry()
    span = SESSIONS / SESSION_QPS
    orchestrator = ChaosOrchestrator(ChaosSchedule((
        ChaosEvent(0.25 * span, 0.20 * span, "gray-failure", "replica:1",
                   80.0),
        ChaosEvent(0.55 * span, 0.20 * span, "zone-outage", "z1"),
    )), registry=registry)
    fleet = ReplicaSet(
        orchestrator.wrap_factory(lambda index: EchoSUT(latency=2e-3)),
        initial_replicas=4, max_replicas=4, zones=2, policy="zone-spread",
        attempt_timeout=0.5, seed=seed, registry=registry,
        cache_factory=per_replica_cache_factory(8192, registry=registry))
    orchestrator.bind(fleet)
    detector = OutlierDetector(fleet, OutlierPolicy(), seed=seed,
                               registry=registry)
    settings = TestSettings(
        scenario=Scenario.SESSION, server_target_qps=SESSION_QPS,
        server_latency_bound=0.2, session_count=SESSIONS,
        session_turns_min=2, session_turns_max=6,
        session_think_time_mean=0.05, min_duration=0.0,
        watchdog_timeout=600.0, seed=seed)
    result = run_benchmark(
        fleet, SyntheticQSL(), settings, services=[orchestrator, detector],
        registry=registry, snapshot_period=0.05)
    assert result.valid, result.validity.reasons
    assert fleet.stats.zone_kills == 1 and fleet.stats.reroutes > 0
    return [(s.time, tuple(s.values.items())) for s in result.snapshots]


@pytest.mark.sessions
def test_same_seed_snapshot_stream_is_identical_and_is_the_recorded_one():
    first = snapshot_stream(3)
    assert first == snapshot_stream(3)
    assert len(first) > 20
    keys = [[k for k, _ in values] for _, values in first]
    # Series appear when first used: the stream grows, it never shrinks
    # or reorders what an earlier snapshot already held.
    routed = 'lb_routed_total{replica="0"}'
    assert routed not in keys[0] and routed in keys[-1]
    for earlier, later in zip(keys, keys[1:]):
        assert [k for k in later if k in set(earlier)] == earlier
    digest = hashlib.sha256(repr(first).encode()).hexdigest()
    assert digest == STREAM_SHA256
