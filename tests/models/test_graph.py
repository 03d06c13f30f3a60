"""Layer graph: shape inference, accounting, execution."""

import numpy as np
import pytest

from repro.models.graph import (
    Activation,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Embedding,
    GlobalAvgPool,
    GlobalMaxPool,
    LSTMLayer,
    MaxPool2D,
    Residual,
    Sequential,
)


class TestShapes:
    def test_conv_shapes(self):
        conv = Conv2D(3, 16, stride=2, padding="same")
        assert conv.output_shape((224, 224, 3)) == (112, 112, 16)

    def test_pool_shapes(self):
        assert MaxPool2D(2).output_shape((8, 8, 4)) == (4, 4, 4)
        assert GlobalAvgPool().output_shape((7, 7, 512)) == (512,)
        assert GlobalMaxPool().output_shape((7, 7, 512)) == (512,)

    def test_sequential_composes(self):
        net = Sequential([
            Conv2D(3, 8, stride=2), Activation("relu"), GlobalAvgPool(),
            Dense(10),
        ])
        assert net.output_shape((32, 32, 1)) == (10,)

    def test_lstm_shapes(self):
        assert LSTMLayer(64).output_shape((10, 32)) == (10, 64)
        assert LSTMLayer(64, bidirectional=True).output_shape((10, 32)) == (10, 128)

    def test_embedding_shape(self):
        assert Embedding(100, 16).output_shape((7,)) == (7, 16)


class TestParamCounting:
    def test_conv_params(self):
        assert Conv2D(3, 16, use_bias=False).param_count((8, 8, 4)) == 3 * 3 * 4 * 16
        assert Conv2D(3, 16, use_bias=True).param_count((8, 8, 4)) == 3 * 3 * 4 * 16 + 16

    def test_depthwise_params(self):
        assert DepthwiseConv2D(3, use_bias=False).param_count((8, 8, 4)) == 36

    def test_dense_params(self):
        assert Dense(10).param_count((20,)) == 210

    def test_batchnorm_counts_learnable_only(self):
        assert BatchNorm().param_count((8, 8, 32)) == 64

    def test_lstm_params_standard_formula(self):
        # 4 * H * (I + H) + 4 * H
        assert LSTMLayer(8).param_count((5, 4)) == 4 * 8 * (4 + 8) + 4 * 8
        assert LSTMLayer(8, bidirectional=True).param_count((5, 4)) == \
            2 * (4 * 8 * (4 + 8) + 4 * 8)

    def test_embedding_params(self):
        assert Embedding(100, 16).param_count(()) == 1600


class TestMacCounting:
    def test_conv_macs(self):
        conv = Conv2D(3, 16, stride=1, padding="same", use_bias=False)
        # 3*3*4*16 MACs per output position, 8*8 positions.
        assert conv.macs((8, 8, 4)) == 9 * 4 * 16 * 64

    def test_dense_macs(self):
        assert Dense(10).macs((20,)) == 200

    def test_stride_reduces_macs_quadratically(self):
        conv1 = Conv2D(3, 16, stride=1)
        conv2 = Conv2D(3, 16, stride=2)
        assert conv1.macs((64, 64, 4)) == 4 * conv2.macs((64, 64, 4))

    def test_lstm_macs_per_timestep(self):
        assert LSTMLayer(8).macs((5, 4)) == 4 * 8 * (4 + 8)


class TestExecution:
    def test_initialize_then_forward_matches_shape(self):
        net = Sequential([
            Conv2D(3, 8, stride=2), BatchNorm(), Activation("relu"),
            GlobalAvgPool(), Dense(5),
        ])
        rng = np.random.default_rng(0)
        out_shape = net.initialize((16, 16, 2), rng)
        assert out_shape == (5,)
        out = net.forward(np.zeros((3, 16, 16, 2), dtype=np.float32))
        assert out.shape == (3, 5)

    def test_lstm_is_accounting_only(self):
        with pytest.raises(NotImplementedError, match="not executable"):
            LSTMLayer(6).forward(np.ones((2, 4, 3), dtype=np.float32))

    def test_forward_without_initialize_raises(self):
        conv = Conv2D(3, 8)
        with pytest.raises(KeyError):
            conv.forward(np.zeros((1, 4, 4, 1), dtype=np.float32))

class TestResidual:
    def _block(self, in_channels=4, out_channels=4, stride=1):
        body = Sequential([
            Conv2D(3, out_channels, stride=stride, use_bias=False),
            BatchNorm(),
        ])
        shortcut = None
        if stride != 1 or in_channels != out_channels:
            shortcut = Sequential([
                Conv2D(1, out_channels, stride=stride, use_bias=False),
                BatchNorm(),
            ])
        return Residual(body, shortcut)

    def test_identity_shortcut_shape(self):
        block = self._block()
        assert block.output_shape((8, 8, 4)) == (8, 8, 4)

    def test_projection_shortcut_shape(self):
        block = self._block(in_channels=4, out_channels=8, stride=2)
        assert block.output_shape((8, 8, 4)) == (4, 4, 8)

    def test_mismatched_shapes_raise(self):
        body = Sequential([Conv2D(3, 8, stride=2, use_bias=False)])
        block = Residual(body)   # identity shortcut cannot match stride 2
        with pytest.raises(ValueError):
            block.output_shape((8, 8, 4))

    def test_param_count_includes_shortcut(self):
        with_proj = self._block(4, 8, 2)
        without = self._block(4, 4, 1)
        assert with_proj.param_count((8, 8, 4)) > without.param_count((8, 8, 4))

    def test_zero_body_passes_input_through_relu(self):
        block = self._block()
        block.initialize((4, 4, 4), np.random.default_rng(0))
        # Zero the body conv: residual output = relu(x).
        block.body.children[0].params["weights"][:] = 0.0
        x = np.random.default_rng(1).normal(size=(1, 4, 4, 4)).astype(np.float32)
        out = block.forward(x)
        assert np.allclose(out, np.maximum(x, 0.0), atol=1e-6)


class TestParameterPlumbing:
    def test_set_parameter_validates(self):
        dense = Dense(4)
        dense.initialize((8,), np.random.default_rng(0))
        with pytest.raises(KeyError):
            dense.set_parameter("nope", np.zeros(1))
        with pytest.raises(ValueError):
            dense.set_parameter("weights", np.zeros((2, 2)))
