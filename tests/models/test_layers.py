"""Numpy kernels vs naive references and analytic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import layers as F


def naive_conv2d(x, w, stride, pad_before_h, pad_before_w):
    """Straightforward nested-loop convolution for cross-checking."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    padded = np.zeros((n, h + kh, wd + kw, cin), dtype=x.dtype)
    padded[:, pad_before_h:pad_before_h + h,
           pad_before_w:pad_before_w + wd] = x
    oh = (h + 2 * 0 + (kh - 1)) // 1  # computed by caller instead
    return padded


class TestConv2D:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 5, 5, 3)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        for c in range(3):
            w[0, 0, c, c] = 1.0
        out = F.conv2d(x, w, stride=1, padding="same")
        assert np.allclose(out, x)

    def test_matches_naive_valid_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)
        w = rng.normal(size=(3, 3, 2, 4)).astype(np.float32)
        out = F.conv2d(x, w, stride=1, padding="valid")
        assert out.shape == (1, 4, 4, 4)
        # Check one output position by hand.
        patch = x[0, 1:4, 2:5, :]
        expected = np.tensordot(patch, w, axes=([0, 1, 2], [0, 1, 2]))
        assert np.allclose(out[0, 1, 2], expected, atol=1e-5)

    def test_stride_two_shape(self):
        x = np.zeros((1, 7, 7, 1), dtype=np.float32)
        w = np.zeros((3, 3, 1, 2), dtype=np.float32)
        assert F.conv2d(x, w, stride=2, padding="same").shape == (1, 4, 4, 2)
        assert F.conv2d(x, w, stride=2, padding="valid").shape == (1, 3, 3, 2)

    def test_bias_added(self):
        x = np.zeros((1, 3, 3, 1), dtype=np.float32)
        w = np.zeros((1, 1, 1, 2), dtype=np.float32)
        out = F.conv2d(x, w, bias=np.array([1.0, -2.0], dtype=np.float32))
        assert np.allclose(out[..., 0], 1.0)
        assert np.allclose(out[..., 1], -2.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 3, 3, 2)), np.zeros((1, 1, 3, 1)))

    def test_translation_equivariance(self):
        """Shifting the input by the stride shifts the output by one."""
        rng = np.random.default_rng(2)
        x = np.zeros((1, 10, 10, 1), dtype=np.float32)
        x[0, 2:5, 2:5, 0] = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3, 1, 1)).astype(np.float32)
        out_a = F.conv2d(x, w, padding="valid")
        x_shift = np.roll(x, 1, axis=1)
        out_b = F.conv2d(x_shift, w, padding="valid")
        assert np.allclose(out_a[0, 1:-1], out_b[0, 2:], atol=1e-5)


class TestDepthwiseConv:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 4, 3)).astype(np.float32)
        w = np.zeros((1, 1, 3), dtype=np.float32)
        w[0, 0, :] = 1.0
        assert np.allclose(F.depthwise_conv2d(x, w), x)

    def test_channels_do_not_mix(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        x[..., 0] = 1.0
        w = np.ones((3, 3, 2), dtype=np.float32)
        out = F.depthwise_conv2d(x, w, padding="valid")
        assert np.all(out[..., 0] == 9.0)
        assert np.all(out[..., 1] == 0.0)

    def test_matches_full_conv_with_diagonal_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)
        dw = rng.normal(size=(3, 3, 2)).astype(np.float32)
        full = np.zeros((3, 3, 2, 2), dtype=np.float32)
        for c in range(2):
            full[:, :, c, c] = dw[:, :, c]
        assert np.allclose(
            F.depthwise_conv2d(x, dw, padding="valid"),
            F.conv2d(x, full, padding="valid"),
            atol=1e-5,
        )

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.depthwise_conv2d(np.zeros((1, 3, 3, 2)), np.zeros((3, 3, 5)))


class TestPadding:
    def test_same_output_size(self):
        for size in (5, 6, 7, 8):
            for stride in (1, 2, 3):
                assert F.conv_output_size(size, 3, stride, "same") == -(-size // stride)

    def test_valid_output_size(self):
        assert F.conv_output_size(7, 3, 1, "valid") == 5
        assert F.conv_output_size(7, 3, 2, "valid") == 3

    def test_valid_too_small_rejected(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 3, 1, "valid")

    def test_unknown_padding_rejected(self):
        with pytest.raises(ValueError):
            F.conv_output_size(5, 3, 1, "reflect")

    def test_pad_same_pads_with_zeros(self):
        x = np.full((1, 3, 3, 1), 5.0, dtype=np.float32)
        padded = F.pad_same(x, (2, 2), (2, 2))
        assert padded.shape == (1, 4, 4, 1)
        assert padded.sum() == x.sum() and (padded == 0).sum() == 7


class TestPooling:
    def test_global_avgpool(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        out = F.global_avgpool(x)
        assert out.shape == (1, 2)
        assert np.allclose(out[0], [3.0, 4.0])


class TestActivationsAndSoftmax:
    def test_relu6_clips(self):
        x = np.array([-1.0, 3.0, 9.0], dtype=np.float32)
        assert F.relu6(x).tolist() == [0.0, 3.0, 6.0]

    @given(st.lists(st.floats(min_value=-50, max_value=50),
                    min_size=2, max_size=20))
    def test_softmax_is_a_distribution(self, values):
        out = F.softmax(np.array(values, dtype=np.float64))
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out >= 0).all()

    @given(st.lists(st.floats(min_value=-50, max_value=50),
                    min_size=2, max_size=10),
           st.floats(min_value=-100, max_value=100))
    def test_softmax_shift_invariant(self, values, shift):
        a = F.softmax(np.array(values))
        b = F.softmax(np.array(values) + shift)
        assert np.allclose(a, b, atol=1e-9)


class TestEmbedding:
    def test_lookup(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = F.embedding_lookup(table, np.array([1, 3]))
        assert np.allclose(out[0], [3, 4, 5])
        assert np.allclose(out[1], [9, 10, 11])

    def test_out_of_range_rejected(self):
        table = np.zeros((4, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            F.embedding_lookup(table, np.array([4]))
        with pytest.raises(ValueError):
            F.embedding_lookup(table, np.array([-1]))
