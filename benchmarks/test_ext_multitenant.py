"""Extension: multitenancy mode (paper Section IV-B, future work).

"A multitenancy mode where the SUT must continuously serve multiple
models while maintaining QoS constraints."  The bench quantifies the
co-location cost: each tenant's comfortable standalone rate versus the
highest joint rates at which BOTH tenants stay valid.
"""

import pytest

from repro.core import Scenario, Task, TestSettings
from repro.harness.multitenant import (
    TenantSpec,
    all_tenants_valid,
    run_multitenant,
)
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.fleet import task_workload

from tests.harness.test_multitenant_contract import (  # noqa: F401
    cost_calls,
    dispatch_trace,
)

#: Two engines: co-located serving without a second execution stream
#: suffers head-of-line blocking behind the tenant with long dispatches
#: (a finding in its own right - see the single-engine test below).
DEVICE = DeviceModel(
    name="mt-gpu", processor=ProcessorType.GPU, peak_gops=40_000.0,
    base_utilization=0.06, saturation_gops=150.0, overhead=0.5e-3,
    max_batch=64, engines=2,
    structure_efficiency={ComputeMotif.RNN: 0.3,
                          ComputeMotif.DEPTHWISE_CNN: 0.35},
)


def tenant(name, task, qps, seed=0):
    return TenantSpec(
        name=name, workload=task_workload(task),
        settings=TestSettings(scenario=Scenario.SERVER, task=task,
                              server_target_qps=qps, min_query_count=1_000,
                              min_duration=1.5, seed=seed),
    )


def joint_valid(resnet_qps, gnmt_qps):
    results = run_multitenant(DEVICE, [
        tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, resnet_qps),
        tenant("gnmt", Task.MACHINE_TRANSLATION, gnmt_qps, seed=9),
    ])
    return all_tenants_valid(results), results


def test_ext_multitenant_low_rates_coexist(benchmark):
    ok, results = benchmark.pedantic(lambda: joint_valid(500.0, 100.0),
                                     rounds=1, iterations=1)
    assert ok, {n: r.validity.reasons for n, r in results.items()}


def test_ext_multitenant_colocation_tax(benchmark):
    """ResNet alone sustains 6k qps on this device; alongside a GNMT
    tenant at 1.2k qps (which eats ~1/3 of effective FLOPs and injects
    long mixed-cost dispatches) the same rate no longer qualifies."""
    def measure():
        alone = run_multitenant(DEVICE, [
            tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 6_000.0)])
        together_ok, _ = joint_valid(6_000.0, 1_200.0)
        return alone["resnet"].valid, together_ok

    alone_ok, together_ok = benchmark.pedantic(measure, rounds=1,
                                               iterations=1)
    print(f"\n  resnet@6000 alone: {'VALID' if alone_ok else 'INVALID'}; "
          f"with gnmt@1200: {'VALID' if together_ok else 'INVALID'}")
    assert alone_ok
    assert not together_ok


def test_ext_multitenant_single_engine_head_of_line(benchmark):
    """With a single execution stream, even a light GNMT tenant's long
    dispatches block ResNet past its 15 ms bound - a co-location hazard
    a multitenancy benchmark would surface."""
    from dataclasses import replace

    single = replace(DEVICE, name="mt-gpu-1e", engines=1)

    def measure():
        results = run_multitenant(single, [
            tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 500.0),
            tenant("gnmt", Task.MACHINE_TRANSLATION, 100.0, seed=9),
        ])
        return results["resnet"].valid

    resnet_ok = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert not resnet_ok


def test_ext_multitenant_dispatches_never_mix_models(benchmark, cost_calls):
    """Each dispatch is priced as one tenant's model: every tenant's
    dispatched samples sum to exactly the samples it issued only if no
    dispatch carries two tenants' chunks."""
    tenants = [
        tenant("resnet", Task.IMAGE_CLASSIFICATION_HEAVY, 800.0),
        tenant("mobilenet", Task.IMAGE_CLASSIFICATION_LIGHT, 800.0, seed=3),
    ]
    results = benchmark.pedantic(lambda: run_multitenant(DEVICE, tenants),
                                 rounds=1, iterations=1)
    dispatched = {spec.name: 0 for spec in tenants}
    for name, samples in dispatch_trace(DEVICE, tenants, cost_calls):
        dispatched[name] += samples
    assert dispatched == {
        name: sum(record.query.sample_count
                  for record in result.log.completed_records())
        for name, result in results.items()}
    # Both tenants fully served under their own rules.
    for name, result in results.items():
        assert result.log.outstanding == 0
        assert result.metrics.query_count >= 1_000
