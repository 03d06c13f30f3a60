"""Markdown report generation."""

import pytest

from repro.core import Scenario, Task
from repro.harness.experiments import SubmissionRecord
from repro.harness.report import (
    coverage_section,
    degradation_section,
    generate_report,
    results_listing,
    spread_section,
)
from repro.sut.device import ProcessorType
from repro.sut.fleet import build_fleet


def record(system, task, scenario, metric, processor=ProcessorType.GPU):
    return SubmissionRecord(
        system=system, processor=processor, framework="TensorRT",
        category="available", task=task, scenario=scenario,
        metric=metric, valid=True,
    )


@pytest.fixture
def records():
    return [
        record("a", Task.IMAGE_CLASSIFICATION_HEAVY, Scenario.SERVER, 800.0),
        record("a", Task.IMAGE_CLASSIFICATION_HEAVY, Scenario.OFFLINE,
               1000.0),
        record("b", Task.IMAGE_CLASSIFICATION_HEAVY, Scenario.OFFLINE, 10.0),
        record("b", Task.MACHINE_TRANSLATION, Scenario.SINGLE_STREAM, 0.02),
    ]


def test_coverage_section_counts(records):
    table = coverage_section(records)
    assert "| resnet50-v1.5 | 0 | 0 | 1 | 2 | 3 |" in table
    assert "| **total** | 1 | 0 | 1 | 2 | 4 |" in table


def test_degradation_section_ratio(records):
    table = degradation_section(records)
    assert "| resnet50-v1.5 | 1 | 0.80 | 0.80 | 0.80 |" in table


def test_spread_section(records):
    table = spread_section(records)
    assert "| resnet50-v1.5 | O | 2 | 100.0x |" in table


def test_listing_formats_latency_in_ms(records):
    listing = results_listing(records)
    assert "20 ms (p90)" in listing


def test_listing_limit(records):
    listing = results_listing(records * 11)  # 44 rows, 40 shown
    assert "(4 more)" in listing
    assert listing.count("| TensorRT |") == 40


def test_generate_report_has_all_sections(records):
    report = generate_report(records, systems=build_fleet(),
                             title="Test report")
    for heading in ("# Test report", "Table VI", "Figure 5", "Figure 7",
                    "Figure 6", "Figure 8", "Table VII",
                    "Individual results"):
        assert heading in report
    assert "TensorRT" in report
