"""``run_multitenant`` pinned by literals.

Two tenants - a fixed-cost ResNet and a variable-cost GNMT - share one
device; the ResNet tenant misses its QoS bound under the GNMT tenant's
interference, the GNMT tenant holds it.  What the shared pool
dispatched, in order, and each tenant's ``run_fingerprint`` are
recorded as sha256 digests, so any change to the pool's batching, its
cost formula or the responses it builds shows here.
"""

import hashlib

from repro.core import Scenario, Task, TestSettings
from repro.durability.resume import run_fingerprint
from repro.harness import multitenant
from repro.harness.multitenant import TenantSpec, run_multitenant
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.fleet import task_workload

DEVICE = DeviceModel(
    "pool-dev", ProcessorType.GPU, peak_gops=40_000.0, base_utilization=0.06,
    saturation_gops=150.0, overhead=0.5e-3, max_batch=64,
    structure_efficiency={ComputeMotif.RNN: 0.3})

#: (dispatches, sha256 of their trace, {tenant: sha256 of its fingerprint}).
PIN = (
    378,
    "3ed4336b3c1606ad20d5c8c11266d9d514c821f5e6d603e906c95fc270fdc5e6",
    {"resnet":
     "1da26395e156c6dee0d852264a77476eda7f1caa5b8b3575a8630cef2f20e96f",
     "gnmt":
     "fdf71d52669a88244cbb3869e79917b8fc9771cce817d0e2bc48c691b1d55018"},
)


def tenant(name, task, qps, seed):
    return TenantSpec(name, task_workload(task), TestSettings(
        scenario=Scenario.SERVER, task=task, server_target_qps=qps,
        min_query_count=300, min_duration=0.5, seed=seed))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_two_tenant_run_is_pinned(monkeypatch):
    pools = []

    class RecordedPool(multitenant._SharedEnginePool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(multitenant, "_SharedEnginePool", RecordedPool)
    results = run_multitenant(DEVICE, [
        tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 300.0, seed=3),
        tenant("gnmt", Task.MACHINE_TRANSLATION, 100.0, seed=9),
    ])
    trace, = (pool.dispatch_trace for pool in pools)
    assert (len(trace), digest(trace),
            {name: digest(run_fingerprint(result))
             for name, result in results.items()}) == PIN
    assert {name: result.valid for name, result in results.items()} == {
        "resnet": False, "gnmt": True}
