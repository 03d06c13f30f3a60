"""Ledgers and views: a ``*Stats`` field declared with ``exported`` is
the counter, the registry reads it, and a series follows its current
owner's current ledger."""

from dataclasses import dataclass, fields, make_dataclass

import pytest

from repro.core import Scenario, TestSettings, run_benchmark
from repro.core.sut import SutBase
from repro.fleet import ReplicaSet
from repro.harness.netbench import SyntheticQSL
from repro.metrics import (
    MetricsRegistry,
    capture,
    export_ledger,
    exported,
    to_prometheus_text,
)
from repro.network.server import ServerStats
from repro.sessions import CacheStats, per_replica_cache_factory
from repro.sut.echo import EchoSUT


@dataclass
class Ledger:
    retries: int = exported("layer_retries_total", "Attempts re-issued")
    gave_up: int = exported("layer_gave_up_total", "Queries abandoned")
    #: Kept for the run report only.
    private: int = 0
    note: str = ""


class Layer:
    def __init__(self):
        self.stats = Ledger()


def test_exported_fields_are_plain_counters_from_zero():
    ledger = Ledger()
    assert (ledger.retries, ledger.gave_up, ledger.private) == (0, 0, 0)
    ledger.retries += 2
    assert ledger == Ledger(retries=2)
    assert [f.name for f in fields(Ledger)] == [
        "retries", "gave_up", "private", "note"]


def test_export_ledger_publishes_the_exported_fields_and_only_those():
    registry, layer = MetricsRegistry(), Layer()
    export_ledger(registry, lambda: layer.stats)
    assert [f.name for f in registry.collect()] == [
        "layer_gave_up_total", "layer_retries_total"]
    assert registry.get("layer_retries_total").help == "Attempts re-issued"
    layer.stats.retries += 3
    assert capture(registry, 0.0).values == {
        "layer_gave_up_total": 0.0, "layer_retries_total": 3.0}
    assert "# TYPE layer_retries_total counter" in to_prometheus_text(registry)
    # start_run replaces the ledger: the series reads the new one.
    layer.stats = Ledger(gave_up=1)
    assert capture(registry, 0.0).values == {
        "layer_gave_up_total": 1.0, "layer_retries_total": 0.0}


def test_export_ledger_under_labels_gives_each_owner_its_series():
    registry = MetricsRegistry()
    layers = [Layer(), Layer()]
    for index, layer in enumerate(layers):
        export_ledger(registry, lambda layer=layer: layer.stats,
                      replica=index)
    layers[1].stats.retries = 4
    assert capture(registry, 0.0).values == {
        'layer_gave_up_total{replica="0"}': 0.0,
        'layer_gave_up_total{replica="1"}': 0.0,
        'layer_retries_total{replica="0"}': 0.0,
        'layer_retries_total{replica="1"}': 4.0}
    # A rebuilt owner of the same series takes it over.
    rebuilt = Layer()
    export_ledger(registry, lambda: rebuilt.stats, replica=1)
    assert capture(registry, 0.0).values[
        'layer_retries_total{replica="1"}'] == 0.0


# -- a series shows its current owner's current ledger ---------------------------


class NeverAnswers(SutBase):
    def issue_query(self, query):
        pass


def test_a_registry_handed_to_a_second_run_reads_that_run():
    """The callbacks of run 1 used to stay bound: the outstanding gauge
    read run 1's drained log (0.0) while run 2 held 50 open queries."""
    registry = MetricsRegistry()
    settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=500.0,
        server_latency_bound=0.1, min_query_count=50, min_duration=0.0,
        watchdog_timeout=1.0, seed=0)
    first = run_benchmark(EchoSUT(latency=0.002), SyntheticQSL(), settings,
                          registry=registry)
    assert first.valid and first.log.outstanding == 0
    second = run_benchmark(NeverAnswers("mute"), SyntheticQSL(), settings,
                           registry=registry)
    assert second.log.outstanding == 50
    values = capture(registry, 0.0).values
    assert values["loadgen_queries_outstanding"] == 50.0
    assert values['loadgen_queries_issued_total{scenario="server"}'] == 50.0
    assert values['loadgen_queries_completed_total{scenario="server"}'] == 0.0
    # What the driver writes itself (it has no ledger for it) still
    # accumulates: run 1's fifty latencies are in the histogram.
    assert values[
        'loadgen_query_latency_seconds{scenario="server"}_count'] == 50.0


@pytest.mark.sessions
def test_a_fleet_run_twice_exports_the_caches_it_has_now():
    registry = MetricsRegistry()
    fleet = ReplicaSet(
        lambda index: EchoSUT(latency=2e-3), initial_replicas=2,
        max_replicas=2, policy="session-affinity", seed=1, registry=registry,
        cache_factory=per_replica_cache_factory(4096, registry=registry))
    settings = TestSettings(
        scenario=Scenario.SESSION, server_target_qps=200.0,
        server_latency_bound=0.2, session_count=40, session_turns_min=2,
        session_turns_max=4, session_think_time_mean=0.02, min_duration=0.0,
        watchdog_timeout=60.0, seed=1)
    run_benchmark(fleet, SyntheticQSL(), settings, registry=registry)
    stale = dict(fleet.caches)
    run_benchmark(fleet, SyntheticQSL(),
                  settings.with_overrides(session_count=25, seed=2),
                  registry=registry)
    values = capture(registry, 0.0).values
    for index, cache in fleet.caches.items():
        assert cache is not stale[index]
        assert cache.stats.hits != stale[index].stats.hits
        assert values[f'prefix_cache_resident_tokens{{replica="{index}"}}'] == (
            cache.model.resident_tokens)
        assert values[f'prefix_cache_hits_total{{replica="{index}"}}'] == (
            cache.stats.hits)
    assert values["fleet_reroutes_total"] == fleet.stats.reroutes


# -- built from dataclasses.fields: a new field cannot be dropped ----------------


def test_server_stats_snapshot_is_every_field_in_declaration_order():
    stats = ServerStats(connections=2, completed=7, loads=1)
    assert list(stats.snapshot()) == [
        "connections", "queries_received", "completed", "failed", "chunks",
        "rejected", "protocol_errors", "batches", "batched_samples",
        "queue_high_water", "loads"]
    assert stats.snapshot()["completed"] == 7
    wider = make_dataclass(
        "WiderStats", [("cancelled", int, 0)], bases=(ServerStats,))
    assert wider(failed=1, cancelled=3).snapshot() == {
        **ServerStats(failed=1).snapshot(), "cancelled": 3}


def test_cache_stats_merged_sums_every_field():
    parts = [CacheStats(hits=1, evictions=2, tokens_missed=10),
             CacheStats(hits=4, admissions=1, tokens_missed=5)]
    assert CacheStats.merged(parts) == CacheStats(
        hits=5, evictions=2, admissions=1, tokens_missed=15)
    assert CacheStats.merged([]) == CacheStats()
    wider = make_dataclass(
        "WiderStats", [("prefetches", int, 0)], bases=(CacheStats,))
    total = wider.merged([wider(misses=1, prefetches=2), wider(prefetches=5)])
    assert total == wider(misses=1, prefetches=7)
