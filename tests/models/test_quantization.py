"""Numerical formats and the quantization flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.graph import BatchNorm, Conv2D, Dense, Sequential
from repro.models.quantization import (
    NumericFormat,
    QuantizationSpec,
    calibrate_clip_percentile,
    iter_layers,
    quantize_model,
    quantize_tensor,
)


def spec(fmt, **kwargs):
    return QuantizationSpec(fmt=fmt, **kwargs)


class TestIntegerFormats:
    def test_fp32_is_identity(self):
        x = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
        assert np.array_equal(quantize_tensor(x, spec(NumericFormat.FP32)), x)

    def test_int8_error_bounded_by_step(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=1000).astype(np.float32)
        q = quantize_tensor(x, spec(NumericFormat.INT8))
        step = (x.max() - x.min()) / 255
        assert np.max(np.abs(q - x)) <= step * 0.51

    def test_int4_much_coarser_than_int8(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=1000).astype(np.float32)
        err8 = np.abs(quantize_tensor(x, spec(NumericFormat.INT8)) - x).mean()
        err4 = np.abs(quantize_tensor(x, spec(NumericFormat.INT4)) - x).mean()
        assert err4 > 5 * err8

    def test_grid_size_respected(self):
        x = np.linspace(-1, 1, 10_000).astype(np.float32)
        q = quantize_tensor(x, spec(NumericFormat.INT4))
        assert len(np.unique(q)) <= 16
        q8 = quantize_tensor(x, spec(NumericFormat.UINT8))
        assert len(np.unique(q8)) <= 256

    def test_zero_is_exactly_representable(self):
        # Affine quantization must map 0.0 to itself (zero-point rule).
        x = np.array([-3.0, 0.0, 10.0], dtype=np.float32)
        for fmt in (NumericFormat.INT8, NumericFormat.UINT8,
                    NumericFormat.INT4, NumericFormat.INT16):
            q = quantize_tensor(x, spec(fmt))
            assert q[1] == 0.0, fmt

    def test_per_channel_beats_per_tensor_on_scaled_channels(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-1, 1, size=(64, 4)).astype(np.float32)
        scales = np.array([1.0, 0.1, 0.01, 0.001], dtype=np.float32)
        x = base * scales
        pt = quantize_tensor(x, spec(NumericFormat.INT8))
        pc = quantize_tensor(x, spec(NumericFormat.INT8, per_channel=True))
        err_pt = np.abs(pt - x)[:, 3].mean()
        err_pc = np.abs(pc - x)[:, 3].mean()
        assert err_pc < err_pt / 10

    def test_clip_percentile_tightens_range(self):
        x = np.concatenate([
            np.random.default_rng(4).uniform(-1, 1, 10_000),
            [100.0],   # one massive outlier
        ]).astype(np.float32)
        full = quantize_tensor(x, spec(NumericFormat.INT8))
        clipped = quantize_tensor(
            x, spec(NumericFormat.INT8, clip_percentile=99.9))
        body = slice(0, 10_000)
        assert np.abs(clipped[body] - x[body]).mean() < \
            np.abs(full[body] - x[body]).mean() / 5

    def test_bad_clip_percentile_rejected(self):
        with pytest.raises(ValueError):
            QuantizationSpec(NumericFormat.INT8, clip_percentile=40.0)

    @given(st.lists(st.floats(min_value=-100, max_value=100, width=32),
                    min_size=2, max_size=200))
    @settings(max_examples=100)
    def test_quantized_values_within_clip_range(self, values):
        x = np.array(values, dtype=np.float32)
        q = quantize_tensor(x, spec(NumericFormat.INT8))
        lo = min(x.min(), 0.0)
        hi = max(x.max(), 0.0)
        span = (hi - lo) or 1e-12
        assert q.min() >= lo - 0.01 * span
        assert q.max() <= hi + 0.01 * span


class TestFloatFormats:
    def test_fp16_matches_numpy_half(self):
        x = np.random.default_rng(5).normal(size=100).astype(np.float32)
        q = quantize_tensor(x, spec(NumericFormat.FP16))
        assert np.array_equal(q, x.astype(np.float16).astype(np.float32))

    def test_bf16_keeps_exponent_loses_mantissa(self):
        x = np.array([1e30, 1e-30, 1.000001], dtype=np.float32)
        q = quantize_tensor(x, spec(NumericFormat.BF16))
        # Huge dynamic range preserved...
        assert q[0] == pytest.approx(1e30, rel=0.01)
        assert q[1] == pytest.approx(1e-30, rel=0.01)
        # ...but only ~2 decimal digits of mantissa.
        assert q[2] == pytest.approx(1.0, abs=0.01)

    def test_fp11_coarse_mantissa(self):
        x = np.float32(1.0 + 1 / 64.0)   # needs 6 mantissa bits
        q = quantize_tensor(np.array([x]), spec(NumericFormat.FP11))[0]
        assert q in (1.0, 1.03125)       # rounded to the 5-bit grid

    def test_fp11_clamps_large_values(self):
        x = np.array([1e9], dtype=np.float32)
        q = quantize_tensor(x, spec(NumericFormat.FP11))
        assert np.isfinite(q[0])
        assert q[0] < 1e6

    def test_is_integer_property(self):
        assert not NumericFormat.BF16.is_integer
        assert NumericFormat.UINT16.is_integer


class TestModelQuantization:
    def _model(self):
        net = Sequential([
            Conv2D(3, 4, name="conv"),
            BatchNorm(name="bn"),
            Dense(2, name="fc"),
        ])
        net.initialize((8, 8, 1), np.random.default_rng(0))
        return net

    def test_batchnorm_parameters_skipped(self):
        net = self._model()
        before = {k: v.copy() for k, v in net.children[1].params.items()}
        quantize_model(net, spec(NumericFormat.INT4))
        for key, value in net.children[1].params.items():
            assert np.array_equal(value, before[key]), key

    def test_conv_and_dense_quantized(self):
        net = self._model()
        original = net.children[0].params["weights"].copy()
        count = quantize_model(net, spec(NumericFormat.INT4))
        assert count == 4   # conv w+b, dense w+b
        assert not np.array_equal(net.children[0].params["weights"], original)

    def test_iter_layers_covers_nested_graphs(self):
        from repro.models.graph import Residual
        inner = Sequential([Conv2D(3, 4, use_bias=False)])
        net = Sequential([Residual(inner), Dense(2)])
        assert len(list(iter_layers(net))) == 2

    def test_iter_layers_covers_ssd(self):
        from repro.models.arch.ssd import build_ssd_mobilenet_v1
        ssd = build_ssd_mobilenet_v1()
        layers = list(iter_layers(ssd))
        # stages' leaves plus 12 heads.
        assert len(layers) > 50


class TestCalibrationSearch:
    def test_picks_the_best_percentile(self):
        # Quality peaks at 99.9 in this synthetic objective.
        def evaluate(spec_):
            return -abs(spec_.clip_percentile - 99.9)

        best, quality = calibrate_clip_percentile(
            evaluate, NumericFormat.INT8,
            candidates=(100.0, 99.99, 99.9, 99.0),
        )
        assert best.clip_percentile == 99.9
        assert quality == 0.0

    def test_spec_fields_propagated(self):
        best, _ = calibrate_clip_percentile(
            lambda s: 1.0, NumericFormat.INT4, per_channel=True,
            candidates=(100.0,),
        )
        assert best.fmt is NumericFormat.INT4
        assert best.per_channel
