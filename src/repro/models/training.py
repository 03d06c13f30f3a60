"""Gradient training for the layer graphs (backprop in numpy).

MLPerf's closed division prohibits retraining, but retraining is central
to the story twice over: the organizers themselves "trained the
MobileNet models for quantization-friendly weights, enabling us to
narrow the quality window to 2%" (Section III-B), and the open division
explicitly allows it.  This module provides what that requires:

* reverse-mode differentiation for the Sequential graphs built from
  ``repro.models.graph`` layers (conv, dense, relu / relu6, global max
  pooling - what the trained classifiers hold);
* softmax cross-entropy loss;
* a minibatch SGD (with momentum) training loop;
* **quantization-aware training** via the straight-through estimator:
  the forward pass sees fake-quantized weights, gradients update the
  FP32 master copy - the standard recipe for quantization-friendly
  weights.

The implementation is deliberately direct: each supported layer type
has a ``(forward-with-cache, backward)`` pair; unsupported layers raise
immediately rather than silently mistraining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import layers as F
from .graph import (
    Activation,
    Conv2D,
    Dense,
    GlobalMaxPool,
    Layer,
    Sequential,
)
from .quantization import QuantizationSpec, quantize_tensor

Grads = Dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got {logits.shape}")
    n = logits.shape[0]
    probabilities = F.softmax(logits, axis=-1)
    eps = 1e-12
    loss = -float(np.mean(
        np.log(probabilities[np.arange(n), labels] + eps)))
    grad = probabilities.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# col2im (the scatter adjoint of im2col)
# ---------------------------------------------------------------------------

def col2im(cols: np.ndarray, padded_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int]) -> np.ndarray:
    """Scatter ``(N, OH, OW, KH*KW*C)`` patches back onto the input."""
    n, h, w, c = padded_shape
    kh, kw = kernel
    sh, sw = stride
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    cols = cols.reshape(n, oh, ow, kh, kw, c)
    out = np.zeros(padded_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + oh * sh:sh, j:j + ow * sw:sw, :] += cols[:, :, :, i, j, :]
    return out


def _unpad(grad_padded: np.ndarray, original_hw: Tuple[int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: str) -> np.ndarray:
    if padding != "same":
        return grad_padded
    h, w = original_hw
    ph = F._same_pad_amounts(h, kernel[0], stride[0])
    pw = F._same_pad_amounts(w, kernel[1], stride[1])
    return grad_padded[:, ph[0]:ph[0] + h, pw[0]:pw[0] + w, :]


# ---------------------------------------------------------------------------
# per-layer forward (with cache) and backward
# ---------------------------------------------------------------------------

def _conv_forward(layer: Conv2D, x: np.ndarray):
    weights = layer.params["weights"]
    kh, kw, cin, cout = weights.shape
    padded = F.pad_same(x, layer.kernel, layer.stride) \
        if layer.padding == "same" else x
    cols = F.im2col(padded, layer.kernel, layer.stride)
    out = cols @ weights.reshape(kh * kw * cin, cout)
    if layer.use_bias:
        out = out + layer.params["bias"]
    cache = (cols, padded.shape, x.shape)
    return out, cache


def _conv_backward(layer: Conv2D, grad_out: np.ndarray, cache):
    cols, padded_shape, x_shape = cache
    weights = layer.params["weights"]
    kh, kw, cin, cout = weights.shape
    flat_cols = cols.reshape(-1, kh * kw * cin)
    flat_grad = grad_out.reshape(-1, cout)
    grads: Grads = {
        "weights": (flat_cols.T @ flat_grad).reshape(weights.shape),
    }
    if layer.use_bias:
        grads["bias"] = flat_grad.sum(axis=0)
    grad_cols = flat_grad @ weights.reshape(kh * kw * cin, cout).T
    grad_padded = col2im(
        grad_cols.reshape(cols.shape), padded_shape,
        layer.kernel, layer.stride)
    grad_x = _unpad(grad_padded, x_shape[1:3], layer.kernel, layer.stride,
                    layer.padding)
    return grad_x, grads


def _dense_forward(layer: Dense, x: np.ndarray):
    out = x @ layer.params["weights"]
    if layer.use_bias:
        out = out + layer.params["bias"]
    return out, x


def _dense_backward(layer: Dense, grad_out: np.ndarray, cache):
    x = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_grad = grad_out.reshape(-1, grad_out.shape[-1])
    grads: Grads = {"weights": flat_x.T @ flat_grad}
    if layer.use_bias:
        grads["bias"] = flat_grad.sum(axis=0)
    grad_x = (flat_grad @ layer.params["weights"].T).reshape(x.shape)
    return grad_x, grads


def _activation_forward(layer: Activation, x: np.ndarray):
    if layer.kind == "relu":
        return F.relu(x), x
    if layer.kind == "relu6":
        return F.relu6(x), x
    raise NotImplementedError(
        f"no gradient implemented for activation {layer.kind!r}")


def _activation_backward(layer: Activation, grad_out: np.ndarray, cache):
    if layer.kind == "relu":
        return grad_out * (cache > 0), {}
    if layer.kind == "relu6":
        return grad_out * ((cache > 0) & (cache < 6)), {}
    raise NotImplementedError(layer.kind)


def _gmp_forward(layer: GlobalMaxPool, x: np.ndarray):
    n, h, w, c = x.shape
    flat = x.reshape(n, h * w, c)
    arg = flat.argmax(axis=1)
    out = flat[np.arange(n)[:, None], arg, np.arange(c)[None, :]]
    return out, (arg, x.shape)


def _gmp_backward(layer: GlobalMaxPool, grad_out: np.ndarray, cache):
    arg, shape = cache
    n, h, w, c = shape
    grad = np.zeros((n, h * w, c), dtype=grad_out.dtype)
    grad[np.arange(n)[:, None], arg, np.arange(c)[None, :]] = grad_out
    return grad.reshape(shape), {}


_FORWARD = {
    Conv2D: _conv_forward,
    Dense: _dense_forward,
    Activation: _activation_forward,
    GlobalMaxPool: _gmp_forward,
}
_BACKWARD = {
    Conv2D: _conv_backward,
    Dense: _dense_backward,
    Activation: _activation_backward,
    GlobalMaxPool: _gmp_backward,
}


def _dispatch(layer: Layer):
    for cls in type(layer).__mro__:
        if cls in _FORWARD:
            return _FORWARD[cls], _BACKWARD[cls]
    raise NotImplementedError(
        f"no gradient support for layer type {type(layer).__name__}")


# ---------------------------------------------------------------------------
# graph-level forward/backward
# ---------------------------------------------------------------------------

def forward_with_cache(graph: Sequential, x: np.ndarray):
    """Forward pass keeping every layer's cache for the backward pass."""
    caches = []
    for layer in graph.children:
        fwd, _ = _dispatch(layer)
        x, cache = fwd(layer, x)
        caches.append(cache)
    return x, caches


def backward(graph: Sequential, grad_out: np.ndarray, caches
             ) -> List[Grads]:
    """Backward pass; returns one param-gradient dict per layer."""
    grads: List[Grads] = [None] * len(graph.children)
    for index in range(len(graph.children) - 1, -1, -1):
        layer = graph.children[index]
        _, bwd = _dispatch(layer)
        grad_out, layer_grads = bwd(layer, grad_out, caches[index])
        grads[index] = layer_grads
    return grads


# ---------------------------------------------------------------------------
# optimizer and training loops
# ---------------------------------------------------------------------------

@dataclass
class SGD:
    """Minibatch SGD with classical momentum and global-norm clipping."""

    learning_rate: float = 0.05
    momentum: float = 0.9
    #: Clip the global gradient norm (0 disables).  Essential when the
    #: network's channel scales are deliberately imbalanced (the light
    #: classifier's quantization-fragility construction).
    clip_norm: float = 5.0
    _velocity: Dict[Tuple[int, str], np.ndarray] = field(
        default_factory=dict, repr=False)

    def step(self, graph: Sequential, grads: List[Grads]) -> None:
        if self.clip_norm > 0:
            total = np.sqrt(sum(
                float((g ** 2).sum())
                for layer_grads in grads for g in layer_grads.values()
            ))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                grads = [
                    {k: g * scale for k, g in layer_grads.items()}
                    for layer_grads in grads
                ]
        for index, (layer, layer_grads) in enumerate(
                zip(graph.children, grads)):
            for key, grad in layer_grads.items():
                slot = (index, key)
                velocity = self._velocity.get(slot)
                if velocity is None:
                    velocity = np.zeros_like(grad)
                velocity = self.momentum * velocity - self.learning_rate * grad
                self._velocity[slot] = velocity
                layer.params[key] = (
                    layer.params[key] + velocity
                ).astype(np.float32)


@dataclass
class TrainReport:
    """Loss trajectory of one training run."""

    losses: List[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


_QUANT_SKIP = ("gamma", "beta", "mean", "variance")


def train_quantization_aware(
    graph: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    quant_spec: QuantizationSpec,
    epochs: int = 5,
    batch_size: int = 32,
    optimizer: Optional[SGD] = None,
    seed: int = 0,
) -> TrainReport:
    """QAT with the straight-through estimator.

    Each step: fake-quantize the master weights, run forward/backward
    through the quantized copy, and apply the gradients to the FP32
    masters (STE: the quantizer's gradient is treated as identity).
    The result is a network whose *quantized* forward pass is accurate -
    "quantization-friendly weights".
    """
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    if len(images) == 0:
        raise ValueError("training set is empty")
    optimizer = optimizer or SGD()
    rng = np.random.default_rng(seed)
    report = TrainReport()
    count = len(images)
    for _epoch in range(epochs):
        order = rng.permutation(count)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, count, batch_size):
            batch = order[start:start + batch_size]
            x = images[batch]
            y = labels[batch]

            # Swap in fake-quantized weights for the forward pass.
            masters = {}
            for index, layer in enumerate(graph.children):
                for key, value in layer.params.items():
                    if key.endswith(_QUANT_SKIP):
                        continue
                    masters[(index, key)] = value
                    layer.params[key] = quantize_tensor(value, quant_spec)

            logits, caches = forward_with_cache(graph, x)
            loss, grad = softmax_cross_entropy(logits, y)
            grads = backward(graph, grad, caches)

            # Restore the FP32 masters before the update (STE).
            for (index, key), value in masters.items():
                graph.children[index].params[key] = value

            optimizer.step(graph, grads)
            epoch_loss += loss
            batches += 1
        report.losses.append(epoch_loss / batches)
    return report


def numerical_gradient(fn: Callable[[np.ndarray], float],
                       array: np.ndarray, epsilon: float = 1e-4,
                       samples: int = 12, seed: int = 0) -> np.ndarray:
    """Central-difference gradient at a few random positions (testing)."""
    rng = np.random.default_rng(seed)
    grad = np.full(array.shape, np.nan)
    flat_indices = rng.choice(array.size, size=min(samples, array.size),
                              replace=False)
    flat = array.reshape(-1)
    for index in flat_indices:
        original = flat[index]
        flat[index] = original + epsilon
        plus = fn(array)
        flat[index] = original - epsilon
        minus = fn(array)
        flat[index] = original
        grad.reshape(-1)[index] = (plus - minus) / (2 * epsilon)
    return grad
