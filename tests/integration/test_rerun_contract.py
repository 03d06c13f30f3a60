"""Running one built stack again is the same as building it afresh.

A stack's links to its run (the loop, the responders, the services'
clocks) are set when a run starts, and whatever a finished run held is
let go of when it ends; neither may leak into what the next run of the
same objects does.  Pinned from the outside:

* **Reruns** - a fleet shaped like the ``session_fleet_chaos`` perf
  workload (four zoned replicas, per-replica prefix caches, a chaos
  schedule, the outlier detector, a registry and its snapshot sampler)
  and the seven faulty shapes of ``test_wrapper_contract.py``, each run
  twice, give what two fresh builds give: ``run_fingerprint``, chunk
  trail, cache, chaos and ejection traces and the stats line.
* **A post-run registry read** - the fleet registry's Prometheus text,
  read after the run, equals the copy in ``rerun_contract/``.

Re-record the copy (after a deliberate change to what the fleet
exports) with ``PYTHONPATH=src python -m tests.integration.test_rerun_contract``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.durability import run_fingerprint
from repro.faults import ChaosEvent, ChaosSchedule
from repro.harness.netbench import SyntheticQSL
from repro.harness.stack import EchoBackend, FleetSpec, StackSpec, build
from repro.metrics import MetricsRegistry
from repro.metrics.export import to_prometheus_text

from tests.conftest import EchoQSL
from tests.integration.test_wrapper_contract import (
    PINNED,
    SHAPES,
    chunk_trail,
    run_settings,
    stats_line,
)

RECORDED = Path(__file__).with_name("rerun_contract") / "fleet_registry.prom"

SESSIONS, SESSION_QPS = 300, 200.0
SPAN = SESSIONS / SESSION_QPS  # seconds of session arrivals

#: ``session_fleet_chaos`` at a quarter of its sessions: a gray failure
#: the detector ejects, then a zone outage the fleet reroutes around.
FLEET_SPEC = StackSpec(
    backend=EchoBackend(2e-3), cache_tokens=8192,
    fleet=FleetSpec(
        replicas=4, max_replicas=4, zones=2, balancer="zone-spread",
        attempt_timeout=0.5, detector=True,
        chaos=ChaosSchedule((
            ChaosEvent(0.25 * SPAN, 0.20 * SPAN, "gray-failure",
                       "replica:1", 80.0),
            ChaosEvent(0.55 * SPAN, 0.20 * SPAN, "zone-outage", "z1"),
        ))))


def session_settings(seed):
    return TestSettings(
        scenario=Scenario.SESSION, server_target_qps=SESSION_QPS,
        server_latency_bound=0.2, session_count=SESSIONS,
        session_turns_min=2, session_turns_max=6,
        session_think_time_mean=0.05, min_duration=0.0,
        watchdog_timeout=600.0, seed=seed)


def fleet_run(stack, seed):
    return stack.run(SyntheticQSL(), session_settings(seed),
                     registry=stack.registry, snapshot_period=0.05)


def fleet_witness(stack, result):
    fleet = stack.sut
    return (result.valid, run_fingerprint(result), chunk_trail(result),
            tuple(tuple(c.events) for _, c in sorted(fleet.caches.items())),
            tuple(stack.orchestrator.trace), tuple(stack.detector.trace),
            fleet.stats.summary(), result.stats.sessions_completed)


def fresh_fleet(seed):
    return build(FLEET_SPEC, seed, MetricsRegistry())


@pytest.mark.parametrize("seed", (0, 7))
def test_a_fleet_run_twice_equals_two_fresh_builds(seed):
    stack = fresh_fleet(seed)
    first = fleet_witness(stack, fleet_run(stack, seed))
    second = fleet_witness(stack, fleet_run(stack, seed))
    other = fresh_fleet(seed)
    fresh = fleet_witness(other, fleet_run(other, seed))
    assert first == second == fresh
    fleet = stack.sut
    # The drill did what it is for: an ejection, a zone kill, reroutes.
    assert fleet.stats.ejections >= 1 and fleet.stats.zone_kills == 1
    assert fleet.stats.reroutes >= 1 and first[0]


def fleet_registry_text():
    stack = fresh_fleet(0)
    result = fleet_run(stack, 0)
    assert result.valid
    return to_prometheus_text(stack.registry)


def test_the_fleet_registry_read_after_the_run_is_the_recorded_one():
    assert fleet_registry_text() == RECORDED.read_text()


def faulty_witness(sut, result):
    return (result.valid, run_fingerprint(result), chunk_trail(result),
            stats_line(sut.stats), len(result.log.failed_records()))


def digest(material):
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16]


@pytest.mark.parametrize("streamed", (False, True),
                         ids=("plain", "streamed"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_faulty_stack_run_twice_equals_two_fresh_builds(shape, streamed):
    seed = 1
    sut = SHAPES[shape](seed, streamed)
    runs = [faulty_witness(sut, run_benchmark(sut, EchoQSL(),
                                              run_settings(seed)))
            for _ in range(2)]
    other = SHAPES[shape](seed, streamed)
    fresh = faulty_witness(other, run_benchmark(other, EchoQSL(),
                                                run_settings(seed)))
    assert runs == [fresh, fresh]
    assert digest(fresh) == PINNED[shape, streamed, seed]


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(fleet_registry_text())
    print(f"recorded {RECORDED}")
