"""Numpy kernels for the reference-model layers.

These are the mathematical primitives from which the Table I reference
models are built: convolutions (via im2col so the inner loop is a single
GEMM), depthwise convolutions, dense layers, batch normalization,
pooling, the usual activations and embedding lookup.

Everything operates on channels-last float arrays: images are
``(N, H, W, C)``, sequences are ``(N, T, C)``.  The kernels favour
clarity and vectorization over micro-optimization - they are the
"reference implementation" a submitter would be allowed to rewrite.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, int):
        return value, value
    a, b = value
    return int(a), int(b)


def conv_output_size(size: int, kernel: int, stride: int, padding: str) -> int:
    """Spatial output size for one dimension under SAME/VALID padding."""
    if padding == "same":
        return -(-size // stride)  # ceil division
    if padding == "valid":
        if size < kernel:
            raise ValueError(f"input {size} smaller than kernel {kernel}")
        return (size - kernel) // stride + 1
    raise ValueError(f"unknown padding {padding!r}")


def _same_pad_amounts(size: int, kernel: int, stride: int) -> Tuple[int, int]:
    """TensorFlow-style SAME padding (possibly asymmetric)."""
    out = conv_output_size(size, kernel, stride, "same")
    total = max((out - 1) * stride + kernel - size, 0)
    before = total // 2
    return before, total - before


def pad_same(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
             ) -> np.ndarray:
    """Zero-pad ``(N, H, W, C)`` input for SAME convolution/pooling."""
    kh, kw = kernel
    sh, sw = stride
    ph = _same_pad_amounts(x.shape[1], kh, sh)
    pw = _same_pad_amounts(x.shape[2], kw, sw)
    if ph == (0, 0) and pw == (0, 0):
        return x
    return np.pad(x, ((0, 0), ph, pw, (0, 0)))


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
           ) -> np.ndarray:
    """Extract convolution patches from a pre-padded input.

    Returns an array of shape ``(N, OH, OW, KH*KW*C)`` whose last axis is
    a flattened receptive field, so convolution reduces to one matmul.
    """
    n, h, w, c = x.shape
    kh, kw = kernel
    sh, sw = stride
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    strides = x.strides
    shape = (n, oh, ow, kh, kw, c)
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=shape,
        strides=(strides[0], strides[1] * sh, strides[2] * sw,
                 strides[1], strides[2], strides[3]),
        writeable=False,
    )
    return view.reshape(n, oh, ow, kh * kw * c)


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray = None,
           stride=1, padding: str = "same") -> np.ndarray:
    """2-D convolution.  ``weights`` has shape ``(KH, KW, Cin, Cout)``."""
    kh, kw, cin, cout = weights.shape
    if x.shape[-1] != cin:
        raise ValueError(f"input has {x.shape[-1]} channels, weights expect {cin}")
    stride = _pair(stride)
    if padding == "same":
        x = pad_same(x, (kh, kw), stride)
    cols = im2col(x, (kh, kw), stride)
    out = cols @ weights.reshape(kh * kw * cin, cout)
    if bias is not None:
        out = out + bias
    return out


def depthwise_conv2d(x: np.ndarray, weights: np.ndarray,
                     bias: np.ndarray = None, stride=1,
                     padding: str = "same") -> np.ndarray:
    """Depthwise 2-D convolution.  ``weights``: ``(KH, KW, C)``."""
    kh, kw, c = weights.shape
    if x.shape[-1] != c:
        raise ValueError(f"input has {x.shape[-1]} channels, weights expect {c}")
    stride = _pair(stride)
    if padding == "same":
        x = pad_same(x, (kh, kw), stride)
    cols = im2col(x, (kh, kw), stride)          # (N, OH, OW, KH*KW*C)
    n, oh, ow, _ = cols.shape
    cols = cols.reshape(n, oh, ow, kh * kw, c)
    out = np.einsum("nhwkc,kc->nhwc", cols, weights.reshape(kh * kw, c))
    if bias is not None:
        out = out + bias
    return out


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray = None
          ) -> np.ndarray:
    """Fully connected layer.  ``weights``: ``(Cin, Cout)``."""
    out = x @ weights
    if bias is not None:
        out = out + bias
    return out


def batchnorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              mean: np.ndarray, variance: np.ndarray,
              epsilon: float = 1e-5) -> np.ndarray:
    """Inference-mode batch normalization with frozen statistics."""
    inv = gamma / np.sqrt(variance + epsilon)
    return x * inv + (beta - mean * inv)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Global average pooling: ``(N, H, W, C)`` -> ``(N, C)``."""
    return x.mean(axis=(1, 2))


def embedding_lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table``: ``(V, D)``; ``ids``: integer array of any shape."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")
    return table[ids]
