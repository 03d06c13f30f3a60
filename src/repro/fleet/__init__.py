"""Replicated serving fleet: balancer, autoscaler, capacity search.

The paper frames MLPerf Inference's Server scenario as a proxy for
production serving fleets; this package closes the loop by actually
running one.  :class:`ReplicaSet` puts N backend replicas behind a
SUT-shaped front door with pluggable seed-deterministic balancing
policies and per-replica circuit breakers (reroute, never crash);
:class:`Autoscaler` grows and shrinks the set from live load signals on
the run's event loop; :class:`OutlierDetector` quarantines gray-failing
replicas (alive but slow) and re-admits them through seeded probation
probes; :class:`SweepHarness` searches the Server arrival rate for the
highest SLO-compliant QPS (``repro sweep`` on the command line).
Replicas live in zones (fault domains), so correlated failures and
zone-aware policies are first-class.  Everything runs under the virtual
clock with seeded RNG streams, so fleet behavior - routing, scaling,
ejection, capacity verdicts - is bit-for-bit reproducible.  See
``docs/fleet.md`` and ``docs/chaos.md``.
"""

from .autoscaler import Autoscaler, AutoscalerPolicy, ScalingDecision
from .balancer import (
    POLICY_NAMES,
    BalancerPolicy,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    SessionAffinityPolicy,
    WeightedP99Policy,
    ZoneLocalPolicy,
    ZoneSpreadPolicy,
    make_policy,
)
from .outlier import EjectionEvent, OutlierDetector, OutlierPolicy
from .replica import Replica, ReplicaHealth
from .replicaset import FleetStats, ReplicaSet
from .signals import (
    BacklogSignal,
    SeriesSignal,
    SignalSource,
    make_signal,
)
from .sweep import SweepConfig, SweepHarness, SweepProbe, SweepResult

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "BacklogSignal",
    "BalancerPolicy",
    "EjectionEvent",
    "FleetStats",
    "LeastOutstandingPolicy",
    "OutlierDetector",
    "OutlierPolicy",
    "POLICY_NAMES",
    "Replica",
    "ReplicaHealth",
    "ReplicaSet",
    "RoundRobinPolicy",
    "ScalingDecision",
    "SeriesSignal",
    "SessionAffinityPolicy",
    "SignalSource",
    "SweepConfig",
    "SweepHarness",
    "SweepProbe",
    "SweepResult",
    "WeightedP99Policy",
    "ZoneLocalPolicy",
    "ZoneSpreadPolicy",
    "make_policy",
    "make_signal",
]
