"""Numerical-format quantization (paper Section IV-A).

MLPerf's closed division permits quantizing the FP32 reference weights
to a registered list of formats - INT4, INT8, INT16, UINT8, UINT16,
FP11 (1-5-5), FP16, bfloat16 - provided the quality target is still met
without retraining.  MLPerf ships a small fixed calibration set for
choosing quantization ranges.

This module implements *fake quantization*: tensors are quantized to the
target format's grid and immediately dequantized back to float32, so the
numerics of the low-precision format flow through the unmodified numpy
kernels.  Integer formats use affine (scale/zero-point) quantization,
per-tensor or per-channel; float formats round the mantissa and clamp to
the format's exponent range.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..bounds import Interval, check_range
from .graph import Layer


class NumericFormat(enum.Enum):
    """The formats MLPerf v0.5 approved for closed-division submissions."""

    FP32 = "fp32"
    FP16 = "fp16"
    BF16 = "bfloat16"
    FP11 = "fp11"
    INT16 = "int16"
    UINT16 = "uint16"
    INT8 = "int8"
    UINT8 = "uint8"
    INT4 = "int4"

    @property
    def is_integer(self) -> bool:
        return self in _INT_RANGES


#: (qmin, qmax) for the integer formats.
_INT_RANGES = {
    NumericFormat.INT4: (-8, 7),
    NumericFormat.INT8: (-128, 127),
    NumericFormat.UINT8: (0, 255),
    NumericFormat.INT16: (-32768, 32767),
    NumericFormat.UINT16: (0, 65535),
}

#: (mantissa_bits, exponent_bits) for the reduced float formats.
_FLOAT_SPECS = {
    NumericFormat.FP16: (10, 5),
    NumericFormat.BF16: (7, 8),
    NumericFormat.FP11: (5, 5),
}


def _quantize_affine(array: np.ndarray, fmt: NumericFormat,
                     low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Affine fake-quantize ``array`` given clip range ``[low, high]``."""
    qmin, qmax = _INT_RANGES[fmt]
    low = np.minimum(low, 0.0)
    high = np.maximum(high, 0.0)
    span = np.maximum(high - low, 1e-12)
    scale = span / (qmax - qmin)
    zero_point = np.round(qmin - low / scale)
    q = np.round(array / scale + zero_point)
    q = np.clip(q, qmin, qmax)
    # The span floor (and zero-point rounding) can place grid points
    # outside [low, high]; the reconstruction must not exceed the clip
    # range it was derived from.
    recon = np.clip((q - zero_point) * scale, low, high)
    return recon.astype(np.float32)


def _quantize_float(array: np.ndarray, fmt: NumericFormat) -> np.ndarray:
    """Round to ``fmt``'s mantissa grid and clamp its exponent range."""
    if fmt is NumericFormat.FP16:
        return array.astype(np.float16).astype(np.float32)
    mantissa_bits, exponent_bits = _FLOAT_SPECS[fmt]
    out = np.asarray(array, dtype=np.float32).copy()
    finite = np.isfinite(out) & (out != 0.0)
    if finite.any():
        values = out[finite]
        mantissa, exponent = np.frexp(values)
        scale = 2.0 ** mantissa_bits
        mantissa = np.round(mantissa * scale) / scale
        values = np.ldexp(mantissa, exponent)
        # Exponent clamp (bias per IEEE-style format).
        max_exp = 2 ** (exponent_bits - 1)
        limit = float(np.ldexp(1.0 - 2.0 ** (-mantissa_bits - 1), max_exp))
        min_normal = float(np.ldexp(1.0, -(max_exp - 2)))
        values = np.clip(values, -limit, limit)
        values = np.where(np.abs(values) < min_normal / 2, 0.0, values)
        out[finite] = values
    return out


#: Clipping below the median would clip most of a tensor away.
_CLIP_PERCENTILE = Interval(50.0, 100.0, False, True, "in (50, 100]")


@dataclass(frozen=True)
class QuantizationSpec:
    """How to quantize a model's parameters.

    ``per_channel`` quantizes each output channel of conv/dense weights
    with its own range - the standard trick that keeps depthwise
    convolutions (MobileNet's weak spot) usable at INT8.
    ``clip_percentile`` discards extreme weight outliers when computing
    the range (100.0 keeps the full min/max range); it is the knob the
    calibration-set search tunes.
    """

    fmt: NumericFormat
    per_channel: bool = False
    clip_percentile: float = 100.0

    def __post_init__(self) -> None:
        check_range("clip_percentile", self.clip_percentile, _CLIP_PERCENTILE)


def quantize_tensor(array: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Fake-quantize one tensor according to ``spec``."""
    array = np.asarray(array, dtype=np.float32)
    if spec.fmt is NumericFormat.FP32:
        return array.copy()
    if not spec.fmt.is_integer:
        return _quantize_float(array, spec.fmt)

    if spec.per_channel and array.ndim >= 2:
        # Channels are the trailing axis for all our weight layouts.
        flat = array.reshape(-1, array.shape[-1])
        if spec.clip_percentile >= 100.0:
            low = flat.min(axis=0)
            high = flat.max(axis=0)
        else:
            low = np.percentile(flat, 100.0 - spec.clip_percentile, axis=0)
            high = np.percentile(flat, spec.clip_percentile, axis=0)
        out = _quantize_affine(flat, spec.fmt, low, high)
        return out.reshape(array.shape)

    if spec.clip_percentile >= 100.0:
        low = float(array.min())
        high = float(array.max())
    else:
        low = float(np.percentile(array, 100.0 - spec.clip_percentile))
        high = float(np.percentile(array, spec.clip_percentile))
    return _quantize_affine(array, spec.fmt, np.float64(low), np.float64(high))


#: Parameter names that stay in float even in quantized deployments
#: (batch-norm statistics are folded, not quantized, in practice).
_SKIP_SUFFIXES = ("gamma", "beta", "mean", "variance")


def quantize_layer(layer: Layer, spec: QuantizationSpec) -> int:
    """Fake-quantize ``layer``'s parameters in place; returns tensor count."""
    count = 0
    for key in list(layer.params):
        if key.endswith(_SKIP_SUFFIXES):
            continue
        layer.params[key] = quantize_tensor(layer.params[key], spec)
        count += 1
    return count


def quantize_model(model: Layer, spec: QuantizationSpec) -> int:
    """Fake-quantize every eligible parameter tensor of ``model``.

    Walks the concrete layers of a ``Sequential`` / ``Residual`` /
    ``SSDArch`` tree (:func:`iter_layers`).  Returns the number of
    tensors quantized.
    """
    count = 0
    for layer in iter_layers(model):
        count += quantize_layer(layer, spec)
    return count


def iter_layers(root: Layer) -> Iterable[Layer]:
    """Yield every concrete layer in a graph (depth first)."""
    from .graph import Residual, Sequential  # local to avoid cycles
    from .arch.ssd import SSDArch

    if isinstance(root, Sequential):
        for child in root.children:
            yield from iter_layers(child)
    elif isinstance(root, Residual):
        yield from iter_layers(root.body)
        if root.shortcut is not None:
            yield from iter_layers(root.shortcut)
    elif isinstance(root, SSDArch):
        for stage in root.stages:
            yield from iter_layers(stage)
        for head in root.class_heads:
            yield head
        for head in root.box_heads:
            yield head
    else:
        yield root


def cross_layer_equalization(graph) -> int:
    """Balance per-channel weight ranges across consecutive layers.

    The data-free fix for per-tensor quantization of scale-imbalanced
    networks (Nagel et al.): for a producing layer whose output channel
    ``c`` feeds - through positively homogeneous layers only (ReLU,
    max/avg pooling) - a consuming layer, rescale the producer's channel
    by ``s_c`` and the consumer's matching inputs by ``1/s_c`` with
    ``s_c = sqrt(r1_c * r2_c) / r1_c``, equalizing both ranges at
    ``sqrt(r1_c * r2_c)``.  FP32 behaviour is exactly unchanged; the
    per-tensor quantization grid stops starving small channels.

    This is the analytic counterpart of the paper's "trained the
    MobileNet models for quantization-friendly weights" (Section III-B).
    Returns the number of layer pairs equalized.
    """
    from .graph import (
        Activation,
        Conv2D,
        Dense,
        GlobalAvgPool,
        GlobalMaxPool,
        MaxPool2D,
        Sequential,
    )

    if not isinstance(graph, Sequential):
        raise TypeError("cross_layer_equalization expects a Sequential graph")

    def positively_homogeneous(layer) -> bool:
        if isinstance(layer, Activation):
            return layer.kind == "relu"   # relu6's cap breaks homogeneity
        return isinstance(layer, (MaxPool2D, GlobalAvgPool, GlobalMaxPool))

    children = graph.children
    equalized = 0
    for i, producer in enumerate(children):
        if not isinstance(producer, Conv2D) or "weights" not in producer.params:
            continue
        # Walk forward through homogeneous layers to the consumer.
        j = i + 1
        while j < len(children) and positively_homogeneous(children[j]):
            j += 1
        if j >= len(children):
            continue
        consumer = children[j]
        w1 = producer.params["weights"]              # (kh, kw, cin, C)
        r1 = np.abs(w1).max(axis=(0, 1, 2))
        r1 = np.maximum(r1, 1e-12)
        if isinstance(consumer, Dense) and "weights" in consumer.params:
            w2 = consumer.params["weights"]          # (C, out)
            if w2.shape[0] != w1.shape[-1]:
                continue
            r2 = np.maximum(np.abs(w2).max(axis=1), 1e-12)
            scale = np.sqrt(r1 * r2) / r1
            producer.params["weights"] = (w1 * scale).astype(np.float32)
            consumer.params["weights"] = (
                w2 / scale[:, None]).astype(np.float32)
        elif isinstance(consumer, Conv2D) and "weights" in consumer.params:
            w2 = consumer.params["weights"]          # (kh, kw, C, out)
            if w2.shape[2] != w1.shape[-1]:
                continue
            r2 = np.maximum(np.abs(w2).max(axis=(0, 1, 3)), 1e-12)
            scale = np.sqrt(r1 * r2) / r1
            producer.params["weights"] = (w1 * scale).astype(np.float32)
            consumer.params["weights"] = (
                w2 / scale[None, None, :, None]).astype(np.float32)
        else:
            continue
        if producer.use_bias:
            producer.params["bias"] = (
                producer.params["bias"] * scale).astype(np.float32)
        equalized += 1
    return equalized


def calibrate_clip_percentile(
    build_and_eval: Callable[[QuantizationSpec], float],
    fmt: NumericFormat,
    per_channel: bool = False,
    candidates: Sequence[float] = (100.0, 99.99, 99.9, 99.5, 99.0),
) -> Tuple[QuantizationSpec, float]:
    """Calibration-set search over clip percentiles (Section IV-A).

    ``build_and_eval`` quantizes a fresh copy of the model with the given
    spec and returns its accuracy **on the calibration set**.  The best
    spec and its calibration accuracy are returned.  This mirrors the
    MLPerf flow: the fixed calibration data set may be used to choose
    ranges, the test set may not.
    """
    best_spec: Optional[QuantizationSpec] = None
    best_quality = -math.inf
    for pct in candidates:
        spec = QuantizationSpec(fmt=fmt, per_channel=per_channel,
                                clip_percentile=pct)
        quality = build_and_eval(spec)
        if quality > best_quality:
            best_quality = quality
            best_spec = spec
    assert best_spec is not None
    return best_spec, best_quality
