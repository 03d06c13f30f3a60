"""Synthetic data sets: determinism, labels, calibration splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    FIRST_WORD_ID,
    GroundTruthObject,
    SyntheticCoco,
    SyntheticImageNet,
    SyntheticWmt,
)
from repro.datasets.glyphs import (
    glyph_templates,
    make_glyph_bank,
    place_glyph,
    resize_glyphs,
)


class TestGlyphs:
    def test_bank_shape_and_binary(self):
        bank = make_glyph_bank(8, 8, seed=1)
        assert bank.shape == (8, 8, 8)
        assert set(np.unique(bank)) <= {0.0, 1.0}

    def test_pairwise_separation(self):
        bank = make_glyph_bank(16, 8, seed=1)
        for i in range(16):
            for j in range(i + 1, 16):
                distance = np.sum(bank[i] != bank[j])
                assert distance >= int(0.4 * 64)

    def test_block_structure(self):
        """Block-2 glyphs are constant on 2x2 blocks."""
        bank = make_glyph_bank(4, 8, seed=2, block=2)
        for glyph in bank:
            blocks = glyph.reshape(4, 2, 4, 2)
            assert np.all(blocks == blocks[:, :1, :, :1])

    def test_deterministic_per_seed(self):
        assert np.array_equal(make_glyph_bank(4, 8, seed=3),
                              make_glyph_bank(4, 8, seed=3))
        assert not np.array_equal(make_glyph_bank(4, 8, seed=3),
                                  make_glyph_bank(4, 8, seed=4))

    def test_templates_zero_mean_unit_norm(self):
        bank = make_glyph_bank(4, 8, seed=1)
        templates = glyph_templates(bank)
        assert templates.shape == (8, 8, 1, 4)
        for c in range(4):
            t = templates[:, :, 0, c]
            assert t.mean() == pytest.approx(0.0, abs=1e-6)
            assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-5)

    def test_resize_roundtrip_for_block_glyphs(self):
        bank = make_glyph_bank(4, 8, seed=1, block=2)
        small = resize_glyphs(bank, 4)
        back = resize_glyphs(small, 8)
        assert np.array_equal(bank, back)

    def test_place_glyph_bbox_and_bounds(self):
        image = np.zeros((16, 16), dtype=np.float32)
        glyph = np.ones((4, 4), dtype=np.float32)
        box = place_glyph(image, glyph, 3, 5)
        assert box == (3, 5, 7, 9)
        assert image[3:7, 5:9].sum() == 16

    def test_place_glyph_out_of_bounds_rejected(self):
        image = np.zeros((8, 8), dtype=np.float32)
        glyph = np.ones((4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            place_glyph(image, glyph, 6, 6)

    def test_too_many_classes_errors_cleanly(self):
        with pytest.raises((RuntimeError, ValueError)):
            make_glyph_bank(2000, 4, seed=0)


class TestSyntheticImageNet:
    def test_sample_shape_and_dtype(self, imagenet):
        sample = imagenet.get_sample(0)
        assert sample.shape == (32, 32, 1)
        assert sample.dtype == np.float32

    def test_samples_deterministic(self, imagenet):
        assert np.array_equal(imagenet.get_sample(7), imagenet.get_sample(7))

    def test_label_consistent_with_sample(self, imagenet):
        """The glyph drawn in the image is the labelled class's glyph."""
        for index in range(10):
            label = imagenet.get_label(index)
            image = imagenet.get_sample(index)[:, :, 0]
            template = imagenet.glyphs[label]
            best = -np.inf
            limit = imagenet.image_size - imagenet.glyph_size
            for top in range(limit + 1):
                for left in range(limit + 1):
                    patch = image[top:top + 8, left:left + 8]
                    best = max(best, float((patch * template).sum()))
            # A perfect glyph correlates at its (binary) energy.
            assert best >= 0.9 * template.sum()

    def test_labels_cover_classes(self, imagenet):
        labels = {imagenet.get_label(i) for i in range(200)}
        assert len(labels) > 10

    def test_calibration_split_disjoint_from_eval(self, imagenet):
        cal = set(imagenet.calibration_indices)
        ev = set(imagenet.evaluation_indices)
        assert cal.isdisjoint(ev)
        assert cal | ev == set(range(len(imagenet)))

    def test_index_bounds(self, imagenet):
        with pytest.raises(IndexError):
            imagenet.get_sample(len(imagenet))
        with pytest.raises(IndexError):
            imagenet.get_label(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SyntheticImageNet(size=0)
        with pytest.raises(ValueError):
            SyntheticImageNet(glyph_size=40, image_size=32)


class TestSyntheticCoco:
    def test_ground_truth_boxes_in_bounds(self, coco):
        for index in range(30):
            for obj in coco.get_label(index):
                y1, x1, y2, x2 = obj.box
                assert 0 <= y1 < y2 <= coco.image_size
                assert 0 <= x1 < x2 <= coco.image_size

    def test_at_least_one_object_per_image(self, coco):
        assert all(len(coco.get_label(i)) >= 1 for i in range(50))

    def test_class_ids_one_based(self, coco):
        ids = {obj.class_id for i in range(50) for obj in coco.get_label(i)}
        assert min(ids) >= 1
        assert max(ids) <= coco.num_classes

    def test_boxes_match_drawn_glyphs(self, coco):
        """Inside each ground-truth box the image contains its glyph."""
        for index in range(10):
            image = coco.get_sample(index)[:, :, 0]
            for obj in coco.get_label(index):
                y1, x1, y2, x2 = (int(v) for v in obj.box)
                size = y2 - y1
                bank = (coco.glyphs if size == coco.glyph_size
                        else coco.large_glyphs)
                glyph = bank[obj.class_id - 1]
                patch = image[y1:y2, x1:x2]
                correlation = float((patch * glyph).sum())
                assert correlation >= 0.9 * glyph.sum()

    def test_two_object_scales_present(self, coco):
        sizes = set()
        for i in range(60):
            for obj in coco.get_label(i):
                sizes.add(int(obj.box[2] - obj.box[0]))
        assert sizes == set(coco.object_scales)

    def test_objects_do_not_overlap_heavily(self, coco):
        from repro.models.nms import iou_matrix
        for index in range(30):
            boxes = np.array([o.box for o in coco.get_label(index)])
            if len(boxes) < 2:
                continue
            ious = iou_matrix(boxes, boxes)
            np.fill_diagonal(ious, 0.0)
            assert ious.max() < 0.5

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SyntheticCoco(image_size=10, glyph_size=8)


class TestSyntheticWmt:
    def test_cipher_is_a_bijection(self, wmt):
        values = list(wmt.cipher.values())
        assert len(set(values)) == len(values)
        assert set(wmt.cipher.keys()) == set(values)

    def test_no_special_tokens_in_sentences(self, wmt):
        for i in range(40):
            assert min(wmt.get_sample(i)) >= FIRST_WORD_ID
            assert min(wmt.get_label(i)) >= FIRST_WORD_ID

    def test_reference_is_reversed_cipher_with_synonyms(self, wmt):
        matches = 0
        total = 0
        for i in range(60):
            source = wmt.get_sample(i)
            reference = wmt.get_label(i)
            assert len(reference) == len(source)
            ideal = wmt.ideal_translation(source)
            for got, want, src in zip(reference, ideal, reversed(source)):
                total += 1
                if got == want:
                    matches += 1
                else:
                    assert got == wmt.synonyms[src]
        assert matches / total == pytest.approx(1 - wmt.synonym_rate, abs=0.05)

    def test_lengths_within_configured_range(self, wmt):
        lengths = [len(wmt.get_sample(i)) for i in range(80)]
        assert min(lengths) >= wmt.min_length
        assert max(lengths) <= wmt.max_length

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SyntheticWmt(vocab_size=3)
        with pytest.raises(ValueError):
            SyntheticWmt(min_length=5, max_length=4)


class TestDatasetQSL:
    def test_protocol_enforced(self, imagenet):
        from repro.datasets import DatasetQSL
        qsl = DatasetQSL(imagenet)
        with pytest.raises(RuntimeError):
            qsl.get_sample(0)
        qsl.load_samples([0, 1])
        assert qsl.get_sample(0) is not None
        qsl.unload_samples([0])
        with pytest.raises(RuntimeError):
            qsl.get_sample(0)
        assert qsl.get_sample(1) is not None

    def test_load_validates_indices(self, imagenet):
        from repro.datasets import DatasetQSL
        qsl = DatasetQSL(imagenet)
        with pytest.raises(IndexError):
            qsl.load_samples([len(imagenet)])

    def test_counts_and_events(self, imagenet):
        from repro.datasets import DatasetQSL
        qsl = DatasetQSL(imagenet, performance_sample_count=32)
        assert qsl.total_sample_count == len(imagenet)
        assert qsl.performance_sample_count == 32
        qsl.load_samples([1, 2, 3])
        qsl.unload_samples([1, 2, 3])
        assert qsl.events == ["load:3", "unload:3"]

    def test_performance_count_defaults_to_the_dataset(self, coco):
        from repro.datasets import DatasetQSL
        qsl = DatasetQSL(coco)
        assert qsl.performance_sample_count == coco.performance_sample_count

    def test_a_rejected_load_loads_nothing(self, imagenet):
        from repro.datasets import DatasetQSL
        qsl = DatasetQSL(imagenet)
        with pytest.raises(IndexError):
            qsl.load_samples([0, len(imagenet)])
        with pytest.raises(RuntimeError):
            qsl.get_sample(0)
        assert qsl.events == []

    def test_samples_pass_through(self, wmt):
        from repro.datasets import DatasetQSL
        qsl = DatasetQSL(wmt)
        assert qsl.name == wmt.name
        qsl.load_samples([5])
        assert list(qsl.get_sample(5)) == list(wmt.get_sample(5))
