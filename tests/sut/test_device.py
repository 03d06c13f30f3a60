"""Analytic device model properties."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType


def device(**kwargs):
    defaults = dict(
        name="dev", processor=ProcessorType.GPU, peak_gops=1000.0,
        base_utilization=0.2, saturation_gops=50.0, overhead=1e-3,
        max_batch=32,
    )
    defaults.update(kwargs)
    return DeviceModel(**defaults)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("peak_gops", 0.0),
        ("base_utilization", 0.0),
        ("base_utilization", 1.5),
        ("saturation_gops", 0.0),
        ("overhead", -1.0),
        ("max_batch", 0),
        ("engines", 0),
    ])
    def test_bad_parameters_rejected(self, field, value):
        with pytest.raises(ValueError):
            device(**{field: value})

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            device(structure_efficiency={ComputeMotif.RNN: 1.5})

    @pytest.mark.parametrize("key", ["rnn", "RNN", None, 2])
    def test_an_efficiency_key_that_is_not_a_motif_is_refused(self, key):
        """No lookup finds such a key, so the motif it meant would run
        at full efficiency without a word."""
        with pytest.raises(ValueError, match=f"key {key!r} is not"):
            DeviceModel("d", ProcessorType.GPU, peak_gops=100.0,
                        structure_efficiency={ComputeMotif.DENSE_CNN: 1.0,
                                              key: 0.3})

    def test_a_motif_key_prices_its_motif(self):
        """What the string key ``"rnn"`` silently lost: the same device
        prices a 1-GOP RNN sample 3.2x slower than at full efficiency."""
        rnn = DeviceModel("d", ProcessorType.GPU, peak_gops=100.0,
                          structure_efficiency={ComputeMotif.RNN: 0.3})
        full = DeviceModel("d", ProcessorType.GPU, peak_gops=100.0)
        for d, seconds in ((rnn, 0.06025925925925926),
                           (full, 0.01877777777777778)):
            assert d.cost_at(1.0, 1, d.motif_efficiency(ComputeMotif.RNN)
                             )[0] == pytest.approx(seconds)


def utilization(d, work_gops):
    """The ramp as ``cost_at`` prices it: where the power of one
    ``work_gops`` dispatch sits between idle (0) and peak (1)."""
    seconds, joules = d.cost_at(work_gops, 1, 1.0)
    return (joules / seconds - d.idle_watts) / (d.peak_watts - d.idle_watts)


class TestUtilization:
    def test_ramps_from_base_to_one(self):
        d = device(base_utilization=0.2, saturation_gops=50.0)
        assert utilization(d, 1e-9) == pytest.approx(0.2, abs=0.01)
        assert utilization(d, 25.0) == pytest.approx(0.6)
        assert utilization(d, 50.0) == pytest.approx(1.0)
        assert utilization(d, 500.0) == pytest.approx(1.0)   # saturated

    def test_ramp_sets_the_duration(self):
        d = device(base_utilization=0.2, saturation_gops=50.0,
                   overhead=0.0)
        assert d.cost_at(25.0, 1, 1.0)[0] == pytest.approx(
            25.0 / (1000.0 * 0.6))
        assert d.cost_at(10.0, 50, 0.5)[0] == pytest.approx(
            500.0 / (1000.0 * 1.0 * 0.5))

    @given(st.floats(min_value=0.01, max_value=1000.0),
           st.floats(min_value=0.01, max_value=1000.0))
    def test_monotone_in_work(self, a, b):
        d = device()
        lo, hi = sorted((a, b))
        assert utilization(d, lo) <= utilization(d, hi) + 1e-12

    def test_nonpositive_work_rejected(self):
        with pytest.raises(ValueError):
            device().cost_at(0.0, 1, 1.0)


class TestServiceTime:
    def test_includes_overhead(self):
        d = device(overhead=5e-3)
        assert d.service_time(1.0, 1) > 5e-3

    def test_monotone_in_batch(self):
        d = device()
        times = [d.service_time(2.0, b) for b in (1, 2, 4, 8, 16, 32)]
        assert times == sorted(times)

    def test_batching_amortizes_per_sample_cost(self):
        d = device(base_utilization=0.05, saturation_gops=100.0)
        per_sample_1 = d.service_time(2.0, 1) / 1
        per_sample_32 = d.service_time(2.0, 32) / 32
        assert per_sample_32 < per_sample_1 / 3

    def test_motif_efficiency_slows_depthwise(self):
        d = device(structure_efficiency={
            ComputeMotif.DENSE_CNN: 1.0, ComputeMotif.DEPTHWISE_CNN: 0.5,
        })
        dense = d.service_time(2.0, 8)
        dw = d.cost_at(2.0, 8, d.motif_efficiency(
            ComputeMotif.DEPTHWISE_CNN))[0]
        assert dw > dense

    def test_unknown_motif_defaults_to_full_efficiency(self):
        d = device()
        assert d.motif_efficiency(ComputeMotif.RNN) == 1.0

    def test_invalid_inputs_rejected(self):
        d = device()
        with pytest.raises(ValueError):
            d.service_time(0.0, 1)
        with pytest.raises(ValueError):
            d.service_time(1.0, 0)


class TestDispatchCost:
    """``cost_at`` is the one body of the cost formula;
    ``service_time`` and ``dispatch_energy`` are its two halves at the
    dense-CNN efficiency."""

    @given(gops=st.floats(1e-6, 1e6), batch=st.integers(1, 4096),
           efficiency=st.floats(0.01, 1.0),
           base=st.floats(0.05, 1.0), saturation=st.floats(0.5, 500.0),
           overhead=st.floats(0.0, 5e-3), idle=st.floats(0.0, 40.0),
           swing=st.floats(0.0, 300.0))
    def test_equals_its_two_fronts_bit_for_bit(
            self, gops, batch, efficiency, base, saturation, overhead, idle,
            swing):
        d = device(base_utilization=base, saturation_gops=saturation,
                   overhead=overhead, idle_watts=idle,
                   peak_watts=idle + swing,
                   structure_efficiency={ComputeMotif.DENSE_CNN: efficiency,
                                         ComputeMotif.RNN: 0.37})
        assert d.cost_at(gops, batch, efficiency) == (
            d.service_time(gops, batch), d.dispatch_energy(gops, batch))

    def test_energy_is_duration_times_power(self):
        d = device(idle_watts=3.0, peak_watts=40.0)
        seconds, joules = d.service_time(2.5, 6), d.dispatch_energy(2.5, 6)
        assert joules == pytest.approx(
            seconds * (3.0 + 37.0 * (0.2 + 0.8 * 15.0 / 50.0)))

    @pytest.mark.parametrize("gops, batch", [(0.0, 1), (-2.0, 3), (1.0, 0),
                                             (1.0, -1)])
    def test_raises_what_its_fronts_raise(self, gops, batch):
        d = device()
        messages = []
        for method in (lambda g, b: d.cost_at(g, b, 1.0), d.service_time,
                       d.dispatch_energy):
            with pytest.raises(ValueError) as raised:
                method(gops, batch)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == messages[2]


class TestThroughput:
    def test_best_offline_picks_a_good_batch(self):
        d = device(base_utilization=0.05, saturation_gops=100.0)
        best = d.best_offline_throughput(2.0)
        for batch in (1, 2, 4, 8, 16, 32):
            assert best >= d.throughput_at_batch(2.0, batch) - 1e-9

    def test_engines_multiply_throughput(self):
        single = device(engines=1)
        dual = device(engines=2)
        assert dual.best_offline_throughput(2.0) == pytest.approx(
            2 * single.best_offline_throughput(2.0))

    def test_structure_observation_of_section_7d(self):
        """175x the ops but only ~50-60x the time (Section VII-D)."""
        d = device(
            peak_gops=100_000, base_utilization=0.05,
            saturation_gops=200.0, max_batch=128,
            structure_efficiency={
                ComputeMotif.DENSE_CNN: 1.0,
                ComputeMotif.DEPTHWISE_CNN: 0.33,
            },
        )
        heavy = d.best_offline_throughput(433.0)
        # The offline throughput is a dense CNN's; a depthwise model
        # runs at the depthwise efficiency.
        light = dataclasses.replace(d, structure_efficiency={
            ComputeMotif.DENSE_CNN: 0.33}).best_offline_throughput(2.47)
        ratio = light / heavy
        ops_ratio = 433.0 / 2.47
        assert ratio == pytest.approx(ops_ratio * 0.33, rel=0.15)
        assert 45 < ratio < 70
