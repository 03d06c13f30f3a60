"""Layer graph with shape inference, parameter and FLOP accounting.

Table I of the paper characterizes each reference model by its parameter
count and its GOPs per input (e.g. ResNet-50 v1.5: 25.6 M parameters and
8.2 GOPs on a 224x224 image).  This module provides layer objects that
compute those quantities *analytically* from the architecture definition
- no weights need to be materialized - while the same objects can also be
initialized and executed for the tiny runnable instantiations.

Conventions:

* shapes are channels-last and exclude the batch axis: an image is
  ``(H, W, C)``, a feature vector is ``(C,)``;
* ``macs`` counts multiply-accumulates of convolutions and dense layers;
  the industry-standard "GOPs" figure (and Table I) is ``2 * macs``;
* ``param_count`` counts learnable parameters (batch-norm running
  statistics excluded, matching the common 25.6 M ResNet-50 figure).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import layers as F

Shape = Tuple[int, ...]


class Layer:
    """Base class: shape inference + accounting + optional execution."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__.lower()
        self.params: Dict[str, np.ndarray] = {}

    # -- accounting (always available) ----------------------------------------

    def output_shape(self, input_shape: Shape) -> Shape:
        raise NotImplementedError

    def param_count(self, input_shape: Shape) -> int:
        return 0

    def macs(self, input_shape: Shape) -> int:
        """Multiply-accumulates of the heavy linear algebra."""
        return 0

    # -- execution (runnable instantiations only) ------------------------------

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        """Create randomly initialized parameters; returns output shape."""
        return self.output_shape(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name} is not executable")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameters -------------------------------------------------------------

    def set_parameter(self, key: str, value: np.ndarray) -> None:
        if key not in self.params:
            raise KeyError(f"{self.name} has no parameter {key!r}")
        if self.params[key].shape != value.shape:
            raise ValueError(
                f"{self.name}.{key}: shape {value.shape} != {self.params[key].shape}"
            )
        self.params[key] = np.asarray(value, dtype=np.float32)


class Conv2D(Layer):
    """Standard convolution, channels-last, weights ``(KH, KW, Cin, Cout)``."""

    def __init__(self, kernel, filters: int, stride=1, padding: str = "same",
                 use_bias: bool = True, name: str = "") -> None:
        super().__init__(name or "conv2d")
        self.kernel = F._pair(kernel)
        self.filters = int(filters)
        self.stride = F._pair(stride)
        self.padding = padding
        self.use_bias = use_bias

    def output_shape(self, input_shape: Shape) -> Shape:
        h, w, _ = input_shape
        oh = F.conv_output_size(h, self.kernel[0], self.stride[0], self.padding)
        ow = F.conv_output_size(w, self.kernel[1], self.stride[1], self.padding)
        return (oh, ow, self.filters)

    def param_count(self, input_shape: Shape) -> int:
        cin = input_shape[-1]
        count = self.kernel[0] * self.kernel[1] * cin * self.filters
        if self.use_bias:
            count += self.filters
        return count

    def macs(self, input_shape: Shape) -> int:
        oh, ow, _ = self.output_shape(input_shape)
        cin = input_shape[-1]
        return self.kernel[0] * self.kernel[1] * cin * self.filters * oh * ow

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        cin = input_shape[-1]
        fan_in = self.kernel[0] * self.kernel[1] * cin
        scale = np.sqrt(2.0 / fan_in)
        self.params["weights"] = rng.normal(
            0.0, scale, size=(*self.kernel, cin, self.filters)
        ).astype(np.float32)
        if self.use_bias:
            self.params["bias"] = np.zeros(self.filters, dtype=np.float32)
        return self.output_shape(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.conv2d(
            x, self.params["weights"], self.params.get("bias"),
            stride=self.stride, padding=self.padding,
        )


class DepthwiseConv2D(Layer):
    """Depthwise convolution, weights ``(KH, KW, C)``."""

    def __init__(self, kernel, stride=1, padding: str = "same",
                 use_bias: bool = True, name: str = "") -> None:
        super().__init__(name or "dwconv2d")
        self.kernel = F._pair(kernel)
        self.stride = F._pair(stride)
        self.padding = padding
        self.use_bias = use_bias

    def output_shape(self, input_shape: Shape) -> Shape:
        h, w, c = input_shape
        oh = F.conv_output_size(h, self.kernel[0], self.stride[0], self.padding)
        ow = F.conv_output_size(w, self.kernel[1], self.stride[1], self.padding)
        return (oh, ow, c)

    def param_count(self, input_shape: Shape) -> int:
        c = input_shape[-1]
        count = self.kernel[0] * self.kernel[1] * c
        if self.use_bias:
            count += c
        return count

    def macs(self, input_shape: Shape) -> int:
        oh, ow, c = self.output_shape(input_shape)
        return self.kernel[0] * self.kernel[1] * c * oh * ow

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        c = input_shape[-1]
        fan_in = self.kernel[0] * self.kernel[1]
        scale = np.sqrt(2.0 / fan_in)
        self.params["weights"] = rng.normal(
            0.0, scale, size=(*self.kernel, c)
        ).astype(np.float32)
        if self.use_bias:
            self.params["bias"] = np.zeros(c, dtype=np.float32)
        return self.output_shape(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.depthwise_conv2d(
            x, self.params["weights"], self.params.get("bias"),
            stride=self.stride, padding=self.padding,
        )


class BatchNorm(Layer):
    """Inference batch norm; 2 learnable parameters per channel."""

    def __init__(self, epsilon: float = 1e-5, name: str = "") -> None:
        super().__init__(name or "batchnorm")
        self.epsilon = epsilon

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def param_count(self, input_shape: Shape) -> int:
        return 2 * input_shape[-1]

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        c = input_shape[-1]
        self.params["gamma"] = np.ones(c, dtype=np.float32)
        self.params["beta"] = np.zeros(c, dtype=np.float32)
        self.params["mean"] = np.zeros(c, dtype=np.float32)
        self.params["variance"] = np.ones(c, dtype=np.float32)
        return input_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.batchnorm(
            x, self.params["gamma"], self.params["beta"],
            self.params["mean"], self.params["variance"], self.epsilon,
        )


class Activation(Layer):
    _FUNCS = {"relu": F.relu, "relu6": F.relu6}

    def __init__(self, kind: str = "relu", name: str = "") -> None:
        super().__init__(name or kind)
        if kind not in self._FUNCS:
            raise ValueError(f"unknown activation {kind!r}")
        self.kind = kind

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._FUNCS[self.kind](x)


class MaxPool2D(Layer):
    def __init__(self, kernel=2, stride=None, padding: str = "valid",
                 name: str = "") -> None:
        super().__init__(name or "maxpool")
        self.kernel = F._pair(kernel)
        self.stride = F._pair(stride) if stride is not None else self.kernel
        self.padding = padding

    def output_shape(self, input_shape: Shape) -> Shape:
        h, w, c = input_shape
        oh = F.conv_output_size(h, self.kernel[0], self.stride[0], self.padding)
        ow = F.conv_output_size(w, self.kernel[1], self.stride[1], self.padding)
        return (oh, ow, c)


class GlobalAvgPool(Layer):
    def output_shape(self, input_shape: Shape) -> Shape:
        return (input_shape[-1],)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.global_avgpool(x)


class GlobalMaxPool(Layer):
    def output_shape(self, input_shape: Shape) -> Shape:
        return (input_shape[-1],)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.max(axis=(1, 2))


class Dense(Layer):
    def __init__(self, units: int, use_bias: bool = True, name: str = "") -> None:
        super().__init__(name or "dense")
        self.units = int(units)
        self.use_bias = use_bias

    def output_shape(self, input_shape: Shape) -> Shape:
        return (*input_shape[:-1], self.units)

    def param_count(self, input_shape: Shape) -> int:
        count = input_shape[-1] * self.units
        if self.use_bias:
            count += self.units
        return count

    def macs(self, input_shape: Shape) -> int:
        # Dense over any leading shape: one MAC matrix per position.
        positions = 1
        for dim in input_shape[:-1]:
            positions *= dim
        return positions * input_shape[-1] * self.units

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        cin = input_shape[-1]
        scale = np.sqrt(2.0 / cin)
        self.params["weights"] = rng.normal(
            0.0, scale, size=(cin, self.units)
        ).astype(np.float32)
        if self.use_bias:
            self.params["bias"] = np.zeros(self.units, dtype=np.float32)
        return self.output_shape(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.dense(x, self.params["weights"], self.params.get("bias"))


class Embedding(Layer):
    """Token embedding table ``(V, D)``; input is integer ids."""

    def __init__(self, vocab_size: int, dim: int, name: str = "") -> None:
        super().__init__(name or "embedding")
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)

    def output_shape(self, input_shape: Shape) -> Shape:
        return (*input_shape, self.dim)

    def param_count(self, input_shape: Shape) -> int:
        return self.vocab_size * self.dim

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        self.params["table"] = rng.normal(
            0.0, 0.05, size=(self.vocab_size, self.dim)
        ).astype(np.float32)
        return self.output_shape(input_shape)

    def forward(self, ids: np.ndarray) -> np.ndarray:
        return F.embedding_lookup(self.params["table"], ids)


class LSTMLayer(Layer):
    """A (possibly bidirectional) LSTM over ``(N, T, I)`` sequences.

    Accounting follows the standard 4-gate cell: per direction the layer
    has ``4 * H * (I + H) + 4 * H`` parameters and ``4 * H * (I + H)``
    MACs per timestep.  ``macs`` reports per-timestep MACs; sequence
    models multiply by their sequence length (see ``arch.gnmt``).  The
    layer is accounting only: it has no forward pass.
    """

    def __init__(self, hidden: int, bidirectional: bool = False,
                 name: str = "") -> None:
        super().__init__(name or "lstm")
        self.hidden = int(hidden)
        self.bidirectional = bidirectional

    @property
    def directions(self) -> int:
        return 2 if self.bidirectional else 1

    def output_shape(self, input_shape: Shape) -> Shape:
        *lead, _ = input_shape
        return (*lead, self.hidden * self.directions)

    def param_count(self, input_shape: Shape) -> int:
        i = input_shape[-1]
        per_dir = 4 * self.hidden * (i + self.hidden) + 4 * self.hidden
        return per_dir * self.directions

    def macs(self, input_shape: Shape) -> int:
        i = input_shape[-1]
        return 4 * self.hidden * (i + self.hidden) * self.directions


class Sequential(Layer):
    """Ordered composition of layers."""

    def __init__(self, children: Sequence[Layer], name: str = "") -> None:
        super().__init__(name or "sequential")
        self.children: List[Layer] = list(children)

    def output_shape(self, input_shape: Shape) -> Shape:
        shape = input_shape
        for child in self.children:
            shape = child.output_shape(shape)
        return shape

    def param_count(self, input_shape: Shape) -> int:
        total = 0
        shape = input_shape
        for child in self.children:
            total += child.param_count(shape)
            shape = child.output_shape(shape)
        return total

    def macs(self, input_shape: Shape) -> int:
        total = 0
        shape = input_shape
        for child in self.children:
            total += child.macs(shape)
            shape = child.output_shape(shape)
        return total

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        shape = input_shape
        for child in self.children:
            shape = child.initialize(shape, rng)
        return shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        for child in self.children:
            x = child.forward(x)
        return x

class Residual(Layer):
    """``act(body(x) + shortcut(x))`` - the ResNet building block.

    ``shortcut`` defaults to identity; pass a projection Sequential when
    shapes change (stride or channel expansion).  ``activation=""``
    makes the join linear - MobileNet-v2's linear bottleneck.
    """

    def __init__(self, body: Sequential, shortcut: Optional[Sequential] = None,
                 activation: str = "relu", name: str = "") -> None:
        super().__init__(name or "residual")
        self.body = body
        self.shortcut = shortcut
        self.activation = Activation(activation) if activation else None

    def output_shape(self, input_shape: Shape) -> Shape:
        out = self.body.output_shape(input_shape)
        short = (
            self.shortcut.output_shape(input_shape)
            if self.shortcut is not None else input_shape
        )
        if out != short:
            raise ValueError(
                f"{self.name}: body shape {out} != shortcut shape {short}"
            )
        return out

    def param_count(self, input_shape: Shape) -> int:
        total = self.body.param_count(input_shape)
        if self.shortcut is not None:
            total += self.shortcut.param_count(input_shape)
        return total

    def macs(self, input_shape: Shape) -> int:
        total = self.body.macs(input_shape)
        if self.shortcut is not None:
            total += self.shortcut.macs(input_shape)
        return total

    def initialize(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        self.body.initialize(input_shape, rng)
        if self.shortcut is not None:
            self.shortcut.initialize(input_shape, rng)
        return self.output_shape(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.body.forward(x)
        short = self.shortcut.forward(x) if self.shortcut is not None else x
        joined = out + short
        if self.activation is None:
            return joined
        return self.activation.forward(joined)
