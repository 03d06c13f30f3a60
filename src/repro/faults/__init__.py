"""Fault injection and run-resilience tooling.

The referee side of MLPerf Inference is only credible if it can referee:
this package supplies deterministic misbehavior (``FaultPlan`` /
``FaultInjector`` / ``FaultySUT``) to prove the hardened LoadGen always
terminates with the right verdict, and a submitter-side retry wrapper
(``ResilientSUT``) that turns transient faults back into VALID runs.
Time-window faults go through one valve, ``WindowedSUT``: typed
``Window`` s (an outage refuses issues and drops deliveries, a partition
drops deliveries, a stretch holds them back in proportion to the time
already spent) applied at issue and at delivery.  ``OutageSUT`` builds
one with a fixed outage window, ``DegradedSUT`` one flipped by hand.
Correlated, fleet-wide failures - zone outages, gray failures,
asymmetric partitions - are driven by the seeded
``ChaosSchedule``/``ChaosOrchestrator`` pair, which opens and closes
windows on per-replica valves (``docs/chaos.md``).
"""

from .chaos import (
    CHAOS_KINDS,
    ChaosDecision,
    ChaosEvent,
    ChaosOrchestrator,
    ChaosSchedule,
    ChaosWindow,
)
from .filtering import Attempt, AttemptSUT, malformed_reason
from .plan import (
    TRANSIENT_FAULTS,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    FaultType,
)
from .resilient import ResilienceStats, ResilientSUT, RetryPolicy
from .sut import DegradedSUT, FaultySUT, OutageSUT, Window, WindowedSUT

__all__ = [
    "CHAOS_KINDS",
    "TRANSIENT_FAULTS",
    "Attempt",
    "AttemptSUT",
    "ChaosDecision",
    "ChaosEvent",
    "ChaosOrchestrator",
    "ChaosSchedule",
    "ChaosWindow",
    "DegradedSUT",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultType",
    "FaultySUT",
    "OutageSUT",
    "ResilienceStats",
    "ResilientSUT",
    "RetryPolicy",
    "Window",
    "WindowedSUT",
    "malformed_reason",
]
