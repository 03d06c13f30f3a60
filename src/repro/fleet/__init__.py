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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
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
})
