"""Backprop, SGD, QAT, and cross-layer equalization."""

import copy

import numpy as np
import pytest

from repro.datasets import SyntheticImageNet
from repro.models.graph import (
    Activation,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    GlobalMaxPool,
    LSTMLayer,
    Sequential,
)
from repro.models.quantization import (
    NumericFormat,
    QuantizationSpec,
    cross_layer_equalization,
)
from repro.models.runtime.classifier import (
    build_glyph_classifier,
    evaluate_classifier,
)
from repro.models.training import (
    SGD,
    backward,
    col2im,
    forward_with_cache,
    numerical_gradient,
    softmax_cross_entropy,
    train_quantization_aware,
)
from repro.models import layers as F


def small_net(seed=0):
    net = Sequential([
        Conv2D(3, 6, stride=1), Activation("relu"), GlobalMaxPool(),
        Dense(4),
    ])
    net.initialize((8, 8, 2), np.random.default_rng(seed))
    return net


def batch(seed=0, n=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 8, 8, 2)).astype(np.float32)
    y = rng.integers(0, 4, n)
    return x, y


class TestLoss:
    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.abs(grad).max() < 1e-6

    def test_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 5))
        _loss, grad = softmax_cross_entropy(logits, rng.integers(0, 5, 6))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))


class TestCol2Im:
    def test_adjoint_of_im2col(self):
        """<im2col(x), g> == <x, col2im(g)> (transpose identity)."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 6, 3))
        cols = F.im2col(x, (3, 3), (2, 2))
        g = rng.normal(size=cols.shape)
        lhs = float((cols * g).sum())
        rhs = float((x * col2im(g, x.shape, (3, 3), (2, 2))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGradients:
    """Analytic gradients versus central differences."""

    def _check(self, net, param_layer_index, key, seed=0):
        x, y = batch(seed)

        def loss_fn(_arr):
            logits, _ = forward_with_cache(net, x)
            return softmax_cross_entropy(logits, y)[0]

        logits, caches = forward_with_cache(net, x)
        _loss, grad = softmax_cross_entropy(logits, y)
        grads = backward(net, grad, caches)
        array = net.children[param_layer_index].params[key]
        numeric = numerical_gradient(loss_fn, array, samples=8, seed=seed)
        mask = ~np.isnan(numeric)
        analytic = grads[param_layer_index][key]
        assert np.allclose(analytic[mask], numeric[mask], atol=5e-3), key

    def test_conv_weights(self):
        self._check(small_net(), 0, "weights")

    def test_conv_bias(self):
        self._check(small_net(), 0, "bias")

    def test_dense_weights_and_bias(self):
        net = small_net()
        self._check(net, 3, "weights")
        self._check(net, 3, "bias")

    def test_unsupported_layer_raises(self):
        net = Sequential([LSTMLayer(4)])
        net.initialize((3, 2), np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            forward_with_cache(net, np.zeros((1, 3, 2), dtype=np.float32))

    @pytest.mark.parametrize("layer", [DepthwiseConv2D(3), BatchNorm(),
                                       GlobalAvgPool()],
                             ids=lambda layer: type(layer).__name__)
    def test_layers_no_trained_model_holds_have_no_backward_pass(self,
                                                                 layer):
        net = Sequential([layer])
        net.initialize((4, 4, 3), np.random.default_rng(0))
        with pytest.raises(NotImplementedError, match="no gradient support"):
            forward_with_cache(net, np.ones((1, 4, 4, 3), dtype=np.float32))

    def test_forward_with_cache_matches_plain_forward(self):
        net = small_net()
        x, _ = batch()
        cached, _ = forward_with_cache(net, x)
        assert np.allclose(cached, net.forward(x), atol=1e-5)


class TestTraining:
    def test_loss_decreases_on_learnable_problem(self):
        net = small_net()
        rng = np.random.default_rng(5)
        images = rng.normal(size=(64, 8, 8, 2)).astype(np.float32)
        labels = rng.integers(0, 4, 64)
        report = train_quantization_aware(
            net, images, labels, QuantizationSpec(NumericFormat.INT8),
            epochs=25, batch_size=16, optimizer=SGD(learning_rate=0.02))
        assert report.final_loss < 0.5 * report.initial_loss

    def test_validation_errors(self):
        net = small_net()
        spec = QuantizationSpec(NumericFormat.INT8)
        with pytest.raises(ValueError):
            train_quantization_aware(net, np.zeros((2, 8, 8, 2)),
                                     np.zeros(3, int), spec)
        with pytest.raises(ValueError):
            train_quantization_aware(net, np.zeros((0, 8, 8, 2)),
                                     np.zeros(0, dtype=int), spec)

    def test_gradient_clipping_bounds_update(self):
        optimizer = SGD(learning_rate=1.0, momentum=0.0, clip_norm=1.0)
        net = Sequential([Dense(2, use_bias=False)])
        net.initialize((3,), np.random.default_rng(0))
        before = net.children[0].params["weights"].copy()
        huge = [{"weights": np.full((3, 2), 1e6)}]
        optimizer.step(net, huge)
        delta = np.linalg.norm(net.children[0].params["weights"] - before)
        assert delta <= 1.0 + 1e-6


class TestQuantizationAwareTraining:
    def test_qat_improves_quantized_accuracy(self):
        """The Section III-B recipe: fine-tuning with quantization in the
        loop produces quantization-friendly weights."""
        dataset = SyntheticImageNet(size=400)
        model = build_glyph_classifier(dataset, "heavy")
        spec = QuantizationSpec(NumericFormat.INT4)
        held_out = range(200, 400)
        naive = evaluate_classifier(model.quantized(spec), dataset, held_out)

        images = np.stack([dataset.get_sample(i) for i in range(200)])
        labels = np.array([dataset.get_label(i) for i in range(200)])
        tuned = copy.deepcopy(model)
        train_quantization_aware(
            tuned.graph, images, labels, spec, epochs=5, batch_size=32,
            optimizer=SGD(learning_rate=0.002))
        qat = evaluate_classifier(tuned.quantized(spec), dataset, held_out)
        assert qat > naive + 3.0

    def test_masters_stay_fp32(self):
        """After QAT the stored weights are NOT on the quantization grid
        (they are the FP32 masters)."""
        net = small_net()
        x, y = batch(n=16)
        spec = QuantizationSpec(NumericFormat.INT4)
        train_quantization_aware(net, x, y, spec, epochs=2, batch_size=8)
        weights = net.children[0].params["weights"]
        grid = np.unique(np.round(weights, 6))
        assert len(grid) > 16   # far more levels than INT4 allows


class TestCrossLayerEqualization:
    def test_rescues_the_light_model_at_int8(self):
        dataset = SyntheticImageNet(size=400)
        model = build_glyph_classifier(dataset, "light")
        spec = QuantizationSpec(NumericFormat.INT8)
        fp32 = evaluate_classifier(model, dataset)
        naive = evaluate_classifier(model.quantized(spec), dataset)

        equalized = copy.deepcopy(model)
        pairs = cross_layer_equalization(equalized.graph)
        assert pairs >= 1
        # FP32 behaviour is exactly preserved...
        assert evaluate_classifier(equalized, dataset) == pytest.approx(
            fp32, abs=0.6)
        # ...and per-tensor INT8 now works.
        rescued = evaluate_classifier(equalized.quantized(spec), dataset)
        assert naive < 0.6 * fp32
        assert rescued > 0.95 * fp32

    def test_balances_weight_ranges(self):
        dataset = SyntheticImageNet(size=50)
        model = build_glyph_classifier(dataset, "light")
        conv = model.graph.children[1]
        spread_before = (np.abs(conv.params["weights"]).max(axis=(0, 1, 2)))
        cross_layer_equalization(model.graph)
        spread_after = (np.abs(conv.params["weights"]).max(axis=(0, 1, 2)))
        ratio = lambda r: r.max() / r.min()
        assert ratio(spread_after) < ratio(spread_before) / 10

    def test_requires_sequential(self):
        with pytest.raises(TypeError):
            cross_layer_equalization(Dense(3))

    def test_relu6_blocks_equalization(self):
        """relu6 is not positively homogeneous: the pair is skipped."""
        net = Sequential([
            Conv2D(3, 4, use_bias=False), Activation("relu6"),
            GlobalMaxPool(), Dense(4),
        ])
        net.initialize((8, 8, 1), np.random.default_rng(0))
        assert cross_layer_equalization(net) == 0


class TestCLEFunctionPreservation:
    """Property: CLE is an exact FP32 reparameterization."""

    from hypothesis import given, settings as hyp_settings
    from hypothesis import strategies as st

    @given(seed=st.integers(min_value=0, max_value=10_000),
           channels=st.integers(min_value=2, max_value=12))
    @hyp_settings(max_examples=25, deadline=None)
    def test_outputs_identical_on_random_networks(self, seed, channels):
        rng = np.random.default_rng(seed)
        net = Sequential([
            Conv2D(3, channels), Activation("relu"), GlobalMaxPool(),
            Dense(5),
        ])
        net.initialize((10, 10, 2), rng)
        # Inject a wild per-channel scale imbalance.
        scales = 10.0 ** rng.uniform(-2, 2, channels)
        net.children[0].params["weights"] = (
            net.children[0].params["weights"] * scales).astype(np.float32)
        net.children[0].params["bias"] = (
            net.children[0].params["bias"] * scales).astype(np.float32)
        x = rng.normal(size=(3, 10, 10, 2)).astype(np.float32)
        before = net.forward(x)
        pairs = cross_layer_equalization(net)
        after = net.forward(x)
        assert pairs == 1
        scale = max(1.0, float(np.abs(before).max()))
        assert np.allclose(before, after, atol=1e-3 * scale)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @hyp_settings(max_examples=15, deadline=None)
    def test_equalization_is_idempotent_in_range_terms(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([
            Conv2D(3, 6), Activation("relu"), GlobalMaxPool(), Dense(4),
        ])
        net.initialize((8, 8, 1), rng)
        cross_layer_equalization(net)
        w1 = net.children[0].params["weights"].copy()
        cross_layer_equalization(net)
        # Second pass changes (nearly) nothing: ranges already equal.
        assert np.allclose(w1, net.children[0].params["weights"],
                           rtol=1e-4, atol=1e-6)
