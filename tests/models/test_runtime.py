"""Runnable reference models: accuracy levels, costs, quantized copies."""

import numpy as np
import pytest

from repro.accuracy.bleu import corpus_bleu
from repro.models.quantization import (
    NumericFormat,
    QuantizationSpec,
    iter_layers,
)
from repro.models.runtime.anchors import (
    decode_boxes,
    single_map_anchors,
)
from repro.models.runtime.classifier import (
    build_glyph_classifier,
    evaluate_classifier,
)
from repro.models.runtime.detector import (
    build_glyph_detector,
    evaluate_detector,
)
from repro.models.runtime.translator import (
    build_cipher_translator,
    evaluate_translator,
)

EVAL = range(64, 264)


class TestClassifier:
    def test_heavy_accuracy_high(self, imagenet):
        model = build_glyph_classifier(imagenet, "heavy")
        assert evaluate_classifier(model, imagenet, EVAL) > 90.0

    def test_light_accuracy_lower_but_useful(self, imagenet):
        heavy = build_glyph_classifier(imagenet, "heavy")
        light = build_glyph_classifier(imagenet, "light")
        heavy_acc = evaluate_classifier(heavy, imagenet, EVAL)
        light_acc = evaluate_classifier(light, imagenet, EVAL)
        assert 60.0 < light_acc < heavy_acc

    def test_light_is_much_cheaper(self, imagenet):
        heavy = build_glyph_classifier(imagenet, "heavy")
        light = build_glyph_classifier(imagenet, "light")
        assert heavy.macs() > 10 * light.macs()

    def test_unknown_variant_rejected(self, imagenet):
        with pytest.raises(ValueError):
            build_glyph_classifier(imagenet, "medium")

    def test_predict_shapes(self, imagenet):
        model = build_glyph_classifier(imagenet, "heavy")
        batch = np.stack([imagenet.get_sample(i) for i in range(4)])
        assert model.predict(batch).shape == (4,)
        assert isinstance(model.predict_one(imagenet.get_sample(0)), int)

    def test_quantized_copy_leaves_original_intact(self, imagenet):
        model = build_glyph_classifier(imagenet, "light")
        original = [{key: value.copy() for key, value in layer.params.items()}
                    for layer in iter_layers(model.graph)]
        model.quantized(QuantizationSpec(NumericFormat.INT4))
        for layer, params in zip(iter_layers(model.graph), original):
            assert layer.params.keys() == params.keys(), layer.name
            for key, value in layer.params.items():
                assert np.array_equal(value, params[key]), (layer.name, key)

    def test_int8_per_tensor_breaks_light_model(self, imagenet):
        """The Section III-B MobileNet quantization story."""
        light = build_glyph_classifier(imagenet, "light")
        fp32 = evaluate_classifier(light, imagenet, EVAL)
        per_tensor = light.quantized(QuantizationSpec(NumericFormat.INT8))
        per_channel = light.quantized(
            QuantizationSpec(NumericFormat.INT8, per_channel=True))
        pt_acc = evaluate_classifier(per_tensor, imagenet, EVAL)
        pc_acc = evaluate_classifier(per_channel, imagenet, EVAL)
        assert pt_acc < 0.7 * fp32          # per-tensor collapses
        assert pc_acc > 0.95 * fp32         # per-channel rescues it

    def test_int8_harmless_for_heavy_model(self, imagenet):
        heavy = build_glyph_classifier(imagenet, "heavy")
        fp32 = evaluate_classifier(heavy, imagenet, EVAL)
        q = heavy.quantized(QuantizationSpec(NumericFormat.INT8))
        assert evaluate_classifier(q, imagenet, EVAL) >= 0.99 * fp32


class TestAnchors:
    def test_anchor_count_and_shape(self):
        anchors = single_map_anchors(48, kernel=12, stride=2, scales=(8, 12))
        # VALID padding: floor((48 - 12) / 2) + 1 = 19 cells per axis.
        assert anchors.shape == (19 * 19 * 2, 4)

    def test_anchor_boxes_have_requested_scales(self):
        anchors = single_map_anchors(48, kernel=12, stride=2, scales=(8, 12))
        heights = anchors[:, 2] - anchors[:, 0]
        assert set(np.unique(heights)) == {8.0, 12.0}

    def test_zero_offsets_decode_to_anchors(self):
        anchors = single_map_anchors(48, kernel=12, stride=4, scales=(8,))
        decoded = decode_boxes(anchors, np.zeros_like(anchors))
        assert np.allclose(decoded, anchors, atol=1e-5)

    def test_offset_moves_box_center(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
        offsets = np.array([[1.0, 0.0, 0.0, 0.0]])
        decoded = decode_boxes(anchors, offsets, variance=(0.1, 0.2))
        # ty=1 with variance 0.1 and h=10 -> center moves by 1.
        assert decoded[0, 0] == pytest.approx(1.0)
        assert decoded[0, 2] == pytest.approx(11.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decode_boxes(np.zeros((2, 4)), np.zeros((3, 4)))


class TestDetector:
    def test_heavy_map_reasonable(self, coco):
        model = build_glyph_detector(coco, "heavy")
        assert evaluate_detector(model, coco, range(32, 112)) > 0.25

    def test_light_cheaper_and_weaker(self, coco):
        heavy = build_glyph_detector(coco, "heavy")
        light = build_glyph_detector(coco, "light")
        assert light.arch.macs(light.input_shape) < \
            heavy.arch.macs(heavy.input_shape) / 2
        h = evaluate_detector(heavy, coco, range(32, 112))
        l = evaluate_detector(light, coco, range(32, 112))
        assert l < h

    def test_detects_isolated_object(self, coco):
        """A clean single glyph must be found with the right class."""
        model = build_glyph_detector(coco, "heavy")
        image = np.zeros((coco.image_size, coco.image_size, 1),
                         dtype=np.float32)
        glyph = coco.glyphs[2]
        image[10:18, 20:28, 0] = glyph
        detections = model.predict(image[None])[0]
        assert detections, "no detections on a clean image"
        best = detections[0]
        assert best.class_id == 3   # class ids are 1-based
        y1, x1, y2, x2 = best.box
        assert abs(y1 - 10) <= 2 and abs(x1 - 20) <= 2

    def test_fast_nms_still_finds_an_isolated_object(self, coco):
        model = build_glyph_detector(coco, "heavy", nms_algorithm="fast")
        assert model.nms_algorithm == "fast"
        image = np.zeros((coco.image_size, coco.image_size, 1),
                         dtype=np.float32)
        image[10:18, 20:28, 0] = coco.glyphs[2]
        detections = model.predict(image[None])[0]
        assert detections and detections[0].class_id == 3

    def test_batch_prediction_matches_one_at_a_time(self, coco):
        model = build_glyph_detector(coco, "light")
        images = np.stack([coco.get_sample(i) for i in range(4)])
        assert model.predict(images) == [
            model.predict(image[None])[0] for image in images]

    def test_quantized_copy_leaves_original_intact(self, coco):
        model = build_glyph_detector(coco, "light")
        image = coco.get_sample(0)
        before = model.predict(image[None])[0]
        model.quantized(QuantizationSpec(NumericFormat.INT4))
        assert model.predict(image[None])[0] == before

    def test_unknown_variant_rejected(self, coco):
        with pytest.raises(ValueError):
            build_glyph_detector(coco, "tiny")

    def test_quantization_degrades_gracefully(self, coco):
        model = build_glyph_detector(coco, "heavy")
        fp32 = evaluate_detector(model, coco, range(32, 96))
        q = model.quantized(QuantizationSpec(NumericFormat.INT8))
        q_map = evaluate_detector(q, coco, range(32, 96))
        assert q_map > 0.8 * fp32


class TestTranslator:
    def test_clean_sentence_translates_exactly(self, wmt):
        model = build_cipher_translator(wmt)
        source = [5, 9, 12, 33]
        expected = wmt.ideal_translation(source)
        assert model.translate(source) == expected

    def test_corpus_bleu_tracks_ideal(self, wmt):
        model = build_cipher_translator(wmt)
        bleu = evaluate_translator(model, wmt, range(32, 192))
        hyp = [wmt.ideal_translation(wmt.get_sample(i)) for i in range(32, 192)]
        ref = [wmt.get_label(i) for i in range(32, 192)]
        ideal = corpus_bleu(hyp, ref)
        # The soft-attention model gives up a few points versus the
        # ideal cipher (synonym near-ties), but tracks it closely.
        assert ideal - 5.0 < bleu <= ideal + 0.5
        assert 50 < bleu < 100   # synonyms keep it below the ceiling

    def test_output_is_as_long_as_the_source(self, wmt):
        model = build_cipher_translator(wmt)
        for index in range(32, 64):
            source = wmt.get_sample(index)
            assert len(model.translate(source)) == len(source)

    def test_output_tokens_stay_in_the_vocabulary(self, wmt):
        model = build_cipher_translator(wmt)
        assert model.embedding.vocab_size == wmt.vocab_size
        tokens = model.translate(wmt.get_sample(40))
        assert all(0 <= t < wmt.vocab_size for t in tokens)

    def test_empty_source(self, wmt):
        model = build_cipher_translator(wmt)
        assert model.translate([]) == []

    def test_too_long_source_rejected(self, wmt):
        model = build_cipher_translator(wmt)
        with pytest.raises(ValueError):
            model.translate([5] * 1000)

    def test_int8_keeps_quality_int4_dents_it(self, wmt):
        model = build_cipher_translator(wmt)
        fp32 = evaluate_translator(model, wmt, range(32, 192))
        int8 = model.quantized(QuantizationSpec(NumericFormat.INT8))
        int4 = model.quantized(QuantizationSpec(NumericFormat.INT4))
        assert evaluate_translator(int8, wmt, range(32, 192)) >= 0.99 * fp32
        assert evaluate_translator(int4, wmt, range(32, 192)) < fp32

    def test_quantized_copy_leaves_original_intact(self, wmt):
        model = build_cipher_translator(wmt)
        before = model.projection.params["weights"].copy()
        model.quantized(QuantizationSpec(NumericFormat.INT4))
        assert np.array_equal(model.projection.params["weights"], before)
