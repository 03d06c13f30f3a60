"""``run_multitenant`` pinned by literals.

Two tenants - a fixed-cost ResNet and a variable-cost GNMT - share one
device; the ResNet tenant misses its QoS bound under the GNMT tenant's
interference, the GNMT tenant holds it.  Every dispatch the shared
device makes calls ``DeviceModel.cost_at(gops x worst, samples,
efficiency)`` exactly once, so that call sequence is what the device
dispatched, in order.  It is recorded as a sha256 digest, as is the
(tenant, samples) trace it implies and each tenant's
``run_fingerprint``, so any change to the shared device's batching,
its cost formula or the responses it builds shows here.
"""

import hashlib

import pytest

from repro.core import Scenario, Task, TestSettings
from repro.durability.resume import run_fingerprint
from repro.harness.multitenant import TenantSpec, run_multitenant
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.fleet import task_workload

DEVICE = DeviceModel(
    "pool-dev", ProcessorType.GPU, peak_gops=40_000.0, base_utilization=0.06,
    saturation_gops=150.0, overhead=0.5e-3, max_batch=64,
    structure_efficiency={ComputeMotif.RNN: 0.3})

#: (dispatches, sha256 of their (tenant, samples) trace,
#: {tenant: sha256 of its fingerprint}).
PIN = (
    378,
    "3ed4336b3c1606ad20d5c8c11266d9d514c821f5e6d603e906c95fc270fdc5e6",
    {"resnet":
     "1da26395e156c6dee0d852264a77476eda7f1caa5b8b3575a8630cef2f20e96f",
     "gnmt":
     "fdf71d52669a88244cbb3869e79917b8fc9771cce817d0e2bc48c691b1d55018"},
)

#: sha256 of the ``cost_at`` argument sequence of the same run.
COST_CALLS = (
    "4b1dc5018256cf3b6ab27cda3b2224fe47829a657b9c972d5bfabf3cb55f8de4")


def tenant(name, task, qps, seed):
    return TenantSpec(name, task_workload(task), TestSettings(
        scenario=Scenario.SERVER, task=task, server_target_qps=qps,
        min_query_count=300, min_duration=0.5, seed=seed))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture
def cost_calls(monkeypatch):
    """Every ``DeviceModel.cost_at`` call's arguments, in order."""
    calls = []
    cost_at = DeviceModel.cost_at

    def recorded(self, gops_per_sample, batch, efficiency):
        calls.append((gops_per_sample, batch, efficiency))
        return cost_at(self, gops_per_sample, batch, efficiency)

    monkeypatch.setattr(DeviceModel, "cost_at", recorded)
    return calls


def dispatch_trace(device, tenants, calls):
    """(tenant, samples) per dispatch.  The pinned tenants run motifs
    of distinct efficiency on their device, so the efficiency names
    the tenant."""
    owner = {device.motif_efficiency(spec.workload.motif): spec.name
             for spec in tenants}
    assert len(owner) == len(tenants)
    return [(owner[efficiency], batch) for _, batch, efficiency in calls]


def test_two_tenant_run_is_pinned(cost_calls):
    tenants = [
        tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 300.0, seed=3),
        tenant("gnmt", Task.MACHINE_TRANSLATION, 100.0, seed=9),
    ]
    results = run_multitenant(DEVICE, tenants)
    trace = dispatch_trace(DEVICE, tenants, cost_calls)
    assert (len(trace), digest(trace),
            {name: digest(run_fingerprint(result))
             for name, result in results.items()}) == PIN
    assert digest(cost_calls) == COST_CALLS
    assert {name: result.valid for name, result in results.items()} == {
        "resnet": False, "gnmt": True}
