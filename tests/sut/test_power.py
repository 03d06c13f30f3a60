"""Device power/energy modeling."""

import pytest

from repro.core.events import EventLoop
from repro.core.sampler import QueryFactory
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.fleet import build_fleet
from repro.sut.simulated import SimulatedSUT, WorkloadProfile


def device(**kwargs):
    defaults = dict(
        name="p", processor=ProcessorType.GPU, peak_gops=1000.0,
        base_utilization=0.2, saturation_gops=50.0, overhead=1e-3,
        max_batch=32, idle_watts=5.0, peak_watts=50.0,
    )
    defaults.update(kwargs)
    return DeviceModel(**defaults)


class TestPowerModel:
    def test_power_interpolates_between_idle_and_peak(self):
        d = device()

        def power(gops):
            return d.dispatch_energy(gops, 1) / d.service_time(gops, 1)

        assert power(1e-9) == pytest.approx(5.0 + 45.0 * 0.2, rel=0.01)
        assert power(50.0) == pytest.approx(50.0)
        assert power(500.0) == pytest.approx(50.0)

    def test_energy_is_power_times_duration(self):
        d = device()
        duration = d.service_time(2.0, 8)
        energy = d.dispatch_energy(2.0, 8)
        assert energy == pytest.approx(
            duration * (5.0 + 45.0 * (0.2 + 0.8 * 16.0 / 50.0)))

    def test_batching_improves_energy_per_sample(self):
        d = device(base_utilization=0.05)
        assert d.energy_per_sample(2.0, 32) < d.energy_per_sample(2.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            device(idle_watts=-1.0)
        with pytest.raises(ValueError):
            device(idle_watts=10.0, peak_watts=5.0)


class TestSimulatedEnergy:
    def test_sut_accumulates_energy(self):
        sut = SimulatedSUT(device(), WorkloadProfile(2.0))
        loop = EventLoop()
        done = []
        sut.start_run(loop, lambda q, r: done.append(q))
        sut.issue_query(QueryFactory().make_query(list(range(8))))
        loop.run()
        assert done
        assert sut.energy_joules == pytest.approx(
            device().dispatch_energy(2.0, 8))

    def test_energy_resets_per_run(self):
        sut = SimulatedSUT(device(), WorkloadProfile(2.0))
        for _ in range(2):
            loop = EventLoop()
            sut.start_run(loop, lambda q, r: None)
            sut.issue_query(QueryFactory().make_query([0]))
            loop.run()
        assert sut.energy_joules == pytest.approx(
            device().dispatch_energy(2.0, 1))


class TestFleetPower:
    def test_three_orders_of_magnitude(self):
        """Section I: systems 'span at least three orders of magnitude
        in power consumption'."""
        watts = [s.device.peak_watts for s in build_fleet()]
        assert max(watts) / min(watts) >= 1e2 * 5   # > 500x, ~3 orders

    def test_every_device_has_sane_power(self):
        for system in build_fleet():
            d = system.device
            assert 0 < d.idle_watts < d.peak_watts

    def test_efficiency_varies_across_the_fleet(self):
        """Inferences per joule on the light model differ by orders of
        magnitude between embedded parts and datacenter parts."""
        efficiencies = {}
        for system in build_fleet():
            d = system.device
            batch = min(8, d.max_batch)
            energy = d.cost_at(1.138, batch, d.motif_efficiency(
                ComputeMotif.DEPTHWISE_CNN))[1] / batch
            efficiencies[system.name] = 1.0 / energy
        spread = max(efficiencies.values()) / min(efficiencies.values())
        assert spread > 10
