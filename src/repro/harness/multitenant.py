"""Multitenancy mode (paper Section IV-B, future work).

"The LoadGen is extensible to support more scenarios, such as a
multitenancy mode where the SUT must continuously serve multiple models
while maintaining QoS constraints."  This harness realizes that mode by
composing existing pieces: one scenario driver per tenant (each with its
own traffic, log, and validity rules) all feeding a shared device whose
engines serve every tenant's queue.

Batches never mix tenants (different models cannot share a dispatch),
so co-location costs are real: each tenant's sustainable rate under its
own QoS bound is lower than it would be with the device to itself -
quantified by ``benchmarks/test_ext_multitenant.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, List, Tuple

import numpy as np

from ..core.config import TestMode, TestSettings
from ..core.events import EventLoop, RunAbortedError, VirtualClock
from ..core.loadgen import LoadGenResult, judge
from ..core.logging import QueryLog
from ..core.query import Query, new_response, sample_id_of
from ..core.sampler import SampleSelector
from ..core.scenarios import PerformanceSource, make_driver
from ..core.sut import SutBase
from ..sut.device import DeviceModel
from ..sut.simulated import WorkloadProfile, chunk_costs


@dataclass(frozen=True)
class TenantSpec:
    """One co-located model: its workload and its scenario settings."""

    name: str
    workload: WorkloadProfile
    settings: TestSettings


#: One dispatchable slice of a tenant's query, as the pool queues it:
#: (tenant, query, samples, worst cost multiplier).
_TenantChunk = Tuple["_TenantFacade", Query, int, float]


class _SharedEnginePool:
    """Device engines serving per-tenant FIFO queues.

    Dispatch policy: take the globally oldest queued chunk, then fill
    the batch with further chunks *of the same tenant* (models cannot
    share a dispatch), up to ``max_batch`` samples.
    """

    def __init__(self, device: DeviceModel, loop: EventLoop,
                 seed: int = 77) -> None:
        self.device = device
        self.loop = loop
        self._queue: List[_TenantChunk] = []
        self._idle_engines = device.engines
        self._rng = np.random.default_rng(seed)
        #: (tenant name, batch sample count) per dispatch, for tests.
        self.dispatch_trace: List[Tuple[str, int]] = []

    def submit(self, tenant: "_TenantFacade", query: Query) -> None:
        chunks = chunk_costs(len(query.samples), self.device.max_batch,
                             tenant.workload.variability, self._rng)
        for samples, worst in chunks:
            self._queue.append((tenant, query, samples, worst))
        tenant.pending_chunks[query.id] = len(chunks)
        self._try_dispatch()

    def _try_dispatch(self) -> None:
        while self._queue and self._idle_engines > 0:
            self._dispatch()

    def _dispatch(self) -> None:
        head = self._queue.pop(0)
        tenant, _, samples, worst = head
        batch = [head]
        capacity = self.device.max_batch - samples
        remaining: List[_TenantChunk] = []
        for chunk in self._queue:
            if chunk[0] is tenant and chunk[2] <= capacity:
                batch.append(chunk)
                capacity -= chunk[2]
                samples += chunk[2]
                worst = max(worst, chunk[3])
            else:
                remaining.append(chunk)
        self._queue = remaining

        duration, _ = self.device.cost_at(
            tenant.workload.gops_per_sample * worst, samples,
            tenant.efficiency)
        self._idle_engines -= 1
        self.dispatch_trace.append((tenant.name, samples))
        self.loop.schedule_after(duration, partial(self._finish, batch))

    def _finish(self, batch: List[_TenantChunk]) -> None:
        self._idle_engines += 1
        for tenant, query, _, _ in batch:
            tenant.pending_chunks[query.id] -= 1
            if tenant.pending_chunks[query.id] == 0:
                del tenant.pending_chunks[query.id]
                tenant.complete(query, list(map(new_response, zip(
                    map(sample_id_of, query.samples), repeat(None)))))
        self._try_dispatch()


class _TenantFacade(SutBase):
    """The per-tenant SUT handle the scenario driver talks to."""

    def __init__(self, name: str, workload: WorkloadProfile,
                 pool: _SharedEnginePool) -> None:
        super().__init__(name)
        self.workload = workload
        self.pool = pool
        #: The workload motif's efficiency on the shared device.
        self.efficiency = pool.device.motif_efficiency(workload.motif)
        self.pending_chunks: Dict[int, int] = {}

    def issue_query(self, query: Query) -> None:
        self.pool.submit(self, query)

    def flush(self) -> None:
        self.pool._try_dispatch()


def run_multitenant(
    device: DeviceModel,
    tenants: List[TenantSpec],
    pool_size: int = 1_024,
) -> Dict[str, LoadGenResult]:
    """Drive every tenant's scenario concurrently on one shared device.

    Returns one standard :class:`LoadGenResult` per tenant, each
    validated against its own scenario's rules.
    """
    if not tenants:
        raise ValueError("at least one tenant is required")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique: {names}")

    loop = EventLoop(VirtualClock())
    pool = _SharedEnginePool(device, loop)
    drivers = []
    for spec in tenants:
        if spec.settings.mode is not TestMode.PERFORMANCE:
            raise ValueError(
                f"tenant {spec.name}: multitenant runs are performance-mode"
            )
        facade = _TenantFacade(spec.name, spec.workload, pool)
        source = PerformanceSource(
            SampleSelector(range(pool_size), seed=spec.settings.seed))
        driver = make_driver(loop, spec.settings, facade, source,
                             QueryLog())
        facade.start_run(loop, driver.handle_completion)
        drivers.append((spec, driver))

    for _spec, driver in drivers:
        driver.start()
    try:
        loop.run()
    except RunAbortedError as abort:
        for _spec, driver in drivers:
            driver.stats.aborted = str(abort)

    return {
        spec.name: judge(spec.settings, driver.log, driver.stats,
                         range(pool_size))
        for spec, driver in drivers
    }


def all_tenants_valid(results: Dict[str, LoadGenResult]) -> bool:
    """The multitenancy pass criterion: every tenant held its QoS."""
    return all(result.valid for result in results.values())
