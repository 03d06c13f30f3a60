"""Multitenancy mode (paper Section IV-B, future work).

"The LoadGen is extensible to support more scenarios, such as a
multitenancy mode where the SUT must continuously serve multiple models
while maintaining QoS constraints."  This harness realizes that mode by
composing existing pieces: each tenant a
:class:`~repro.sut.simulated.SimulatedSUT`, all of them co-tenants on
one device's engines and queue, driven by
:func:`~repro.core.loadgen.run_tenants` - one scenario driver per tenant
(each with its own traffic, log, and validity rules) on one loop.

Batches never mix tenants (different models cannot share a dispatch),
so co-location costs are real: each tenant's sustainable rate under its
own QoS bound is lower than it would be with the device to itself -
quantified by ``benchmarks/test_ext_multitenant.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.config import TestMode, TestSettings
from ..core.loadgen import LoadGenResult, run_tenants
from ..sut.device import DeviceModel
from ..sut.simulated import SimulatedSUT, WorkloadProfile
from .netbench import SyntheticQSL

#: Resident samples every tenant draws from.
POOL_SIZE = 1_024


@dataclass(frozen=True)
class TenantSpec:
    """One co-located model: its workload and its scenario settings."""

    name: str
    workload: WorkloadProfile
    settings: TestSettings


def run_multitenant(
    device: DeviceModel,
    tenants: List[TenantSpec],
) -> Dict[str, LoadGenResult]:
    """Drive every tenant's scenario concurrently on one shared device.

    Returns one standard :class:`LoadGenResult` per tenant, each
    validated against its own scenario's rules.  A tenant's watchdog
    stops the shared loop, so every tenant stops with it.
    """
    if not tenants:
        raise ValueError("at least one tenant is required")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique: {names}")
    for spec in tenants:
        if spec.settings.mode is not TestMode.PERFORMANCE:
            raise ValueError(
                f"tenant {spec.name}: multitenant runs are performance-mode"
            )

    # The first tenant's SUT hosts the device; the rest are its co-tenants.
    first = tenants[0]
    host = SimulatedSUT(device, first.workload, name=first.name, seed=77)
    suts = [host] + [host.co_tenant(spec.workload, spec.name)
                     for spec in tenants[1:]]
    # Every tenant draws from the same ``POOL_SIZE`` resident samples.
    qsl = SyntheticQSL(total=POOL_SIZE, performance=POOL_SIZE)
    results = run_tenants([(sut, qsl, spec.settings)
                           for spec, sut in zip(tenants, suts)])
    return {spec.name: result for spec, result in zip(tenants, results)}


def all_tenants_valid(results: Dict[str, LoadGenResult]) -> bool:
    """The multitenancy pass criterion: every tenant held its QoS."""
    return all(result.valid for result in results.values())
