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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
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
    "sut": ("DegradedSUT", "FaultySUT", "OutageSUT", "Window", "WindowedSUT"),
})
