"""The Table I model registry."""

import pytest

from repro.core.config import Task
from repro.models.registry import all_models, model_info


def test_registry_covers_all_tasks():
    assert {info.task for info in all_models()} == set(Task)


def test_row_order_matches_table_i():
    names = [info.display_name for info in all_models()]
    assert names == ["ResNet-50 v1.5", "MobileNet-v1 224", "SSD-ResNet-34",
                     "SSD-MobileNet-v1", "GNMT"]


def test_quality_targets():
    resnet = model_info(Task.IMAGE_CLASSIFICATION_HEAVY)
    # 99% of 76.456 = 75.69, the paper's worked example.
    assert resnet.quality_target_factor * resnet.fp32_quality == \
        pytest.approx(75.69, abs=0.01)
    mobilenet = model_info(Task.IMAGE_CLASSIFICATION_LIGHT)
    assert mobilenet.quality_target_factor == 0.98


def test_gnmt_has_no_published_gops():
    assert model_info(Task.MACHINE_TRANSLATION).gops_per_input is None


def test_builders_produce_accountable_models():
    for info in all_models():
        arch = info.build_arch()
        if info.task is Task.MACHINE_TRANSLATION:
            params = arch.param_count()
        else:
            params = arch.param_count(info.input_shape)
        assert params == pytest.approx(info.parameters, rel=0.11)


def test_datasets_named():
    assert "ImageNet" in model_info(Task.IMAGE_CLASSIFICATION_HEAVY).dataset
    assert "COCO" in model_info(Task.OBJECT_DETECTION_HEAVY).dataset
    assert "WMT16" in model_info(Task.MACHINE_TRANSLATION).dataset
