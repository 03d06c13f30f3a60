"""Fault injection and run-resilience tooling.

The referee side of MLPerf Inference is only credible if it can referee:
this package supplies deterministic misbehavior (``FaultPlan`` /
``FaultInjector`` / ``FaultySUT``) to prove the hardened LoadGen always
terminates with the right verdict, and a submitter-side retry wrapper
(``ResilientSUT``) that turns transient faults back into VALID runs.
Correlated, fleet-wide failures - zone outages, gray failures,
asymmetric partitions - are driven by the seeded
``ChaosSchedule``/``ChaosOrchestrator`` pair through per-replica
``DegradedSUT`` valves (``docs/chaos.md``).
"""

from .burst import BurstPlan, BurstWindow
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
from .sut import BrownoutSUT, DegradedSUT, FaultySUT, OutageSUT

__all__ = [
    "CHAOS_KINDS",
    "TRANSIENT_FAULTS",
    "Attempt",
    "AttemptSUT",
    "BrownoutSUT",
    "BurstPlan",
    "BurstWindow",
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
    "malformed_reason",
]
