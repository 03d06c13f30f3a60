"""Property tests: the outlier detector's safety and liveness bounds.

Hypothesis drives randomized brownouts - fleet size, which replicas
degrade, how hard, and how much quarantine budget the policy grants -
and checks the two contracts docs/chaos.md promises regardless of the
draw:

* **Safety** - replaying the ejection trail, the set of simultaneously
  quarantined replicas never exceeds
  ``int(max_ejection_fraction * alive)``; a storm of gray failures can
  not hollow out the fleet.
* **Liveness** - once every degradation window has closed, probation
  probes succeed and the fleet converges back to full strength: no
  replica is still EJECTED when the run ends, and the quarantine list
  is empty.

Runs use the virtual clock, so each example is a full deterministic
Server run in milliseconds of wall time.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.faults import DegradedSUT
from repro.fleet import (
    OutlierDetector,
    OutlierPolicy,
    ReplicaHealth,
    ReplicaSet,
)

from tests.conftest import EchoQSL, FixedLatencySUT

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

#: Degradation is confined to [DEGRADE_AT, RESTORE_AT]; the run then
#: keeps serving until HORIZON so probation has room to converge.
DEGRADE_AT = 0.2
RESTORE_AT = 0.6
HORIZON = 1.5


class _Brownout:
    """RunService that opens and closes the drawn degradation windows."""

    def __init__(self, valves, degraded, factor):
        self.valves = valves
        self.degraded = degraded
        self.factor = factor

    def start(self, loop, keep_going):
        for index in self.degraded:
            valve = self.valves[index]
            loop.schedule_after(
                DEGRADE_AT, lambda v=valve: v.degrade(self.factor))
            loop.schedule_after(RESTORE_AT, valve.restore)

    def stop(self):
        pass


def brownout_run(n, degraded, factor, fraction, seed):
    valves = {}

    def factory(index):
        valve = DegradedSUT(FixedLatencySUT(latency=0.002))
        valves[index] = valve
        return valve

    # The latency window is count-based: at ~133 q/s per replica the
    # default 128 samples would still hold pre-restore (gray) latencies
    # ~1 s after RESTORE_AT, and a healthy replica could be ejected on
    # the run's last tick with no time left for its probation.
    fleet = ReplicaSet(factory, initial_replicas=n, seed=seed,
                       latency_window=32)
    policy = OutlierPolicy(
        period=0.010, min_observations=8, ejection_duration=0.050,
        probe_timeout=0.008, max_ejection_fraction=fraction)
    detector = OutlierDetector(fleet, policy, seed=seed)
    run_settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=400.0,
        server_latency_bound=0.5, min_query_count=300,
        min_duration=HORIZON, watchdog_timeout=60.0, seed=seed,
    )
    result = run_benchmark(
        fleet, EchoQSL(), run_settings,
        services=[_Brownout(valves, degraded, factor), detector])
    return fleet, detector, result


def max_simultaneous_quarantine(trace):
    """Replay the ejection trail and report the peak quarantine size.

    ``eject`` admits a replica to quarantine, ``readmit`` releases it;
    ``probe`` and ``re-eject`` leave membership unchanged (a re-eject
    only restarts an already-quarantined replica's clock).
    """
    active, peak = set(), 0
    for event in trace:
        if event.action == "eject":
            active.add(event.replica)
        elif event.action == "readmit":
            active.discard(event.replica)
        peak = max(peak, len(active))
    return peak


@given(
    n=st.integers(min_value=3, max_value=6),
    mask=st.integers(min_value=0, max_value=63),
    factor=st.floats(min_value=5.0, max_value=16.0,
                     allow_nan=False, allow_infinity=False),
    fraction=st.sampled_from([0.2, 0.34, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=3, mask=3, factor=6.0, fraction=0.34, seed=0)
@settings(max_examples=12, deadline=None)
def test_ejections_stay_bounded_and_the_fleet_recovers(
        n, mask, factor, fraction, seed):
    degraded = [index for index in range(n) if mask >> index & 1]
    fleet, detector, result = brownout_run(
        n, degraded, factor, fraction, seed)

    # Safety: the quarantine never outgrows the policy's budget.  No
    # replica is administratively killed here, so "alive" is the whole
    # fleet for the entire run.
    assert max_simultaneous_quarantine(detector.trace) \
        <= int(fraction * n)

    # The referee invariant holds under every draw: nothing is lost.
    assert not result.log.failed_records()
    records = result.log.completed_records()
    assert len({r.query.id for r in records}) == len(records)

    # Liveness: degradation ended at RESTORE_AT and the run served on
    # until HORIZON, so every quarantined replica had time to pass
    # probation.  The fleet must be back at full strength.
    assert detector.quarantined == []
    assert all(r.health is ReplicaHealth.UP for r in fleet.replicas)
    # Only ever-degraded replicas may appear in the trail.
    assert {event.replica for event in detector.trace} <= set(degraded)
