"""Figure 8: relative performance per model and scenario.

Published observations: four orders of magnitude separate the smallest
and largest systems overall; popular combos like ResNet-50 (SS/offline)
spread by 100x or more within one chart; GNMT server "exhibits much less
performance variation"; GNMT-multistream has no bar at all.
"""

import pytest

from repro.core import PAPER_SCENARIOS, Scenario, Task
from repro.harness.experiments import relative_performance


@pytest.fixture(scope="module")
def rel(fleet_records):
    return relative_performance(fleet_records)


def test_fig8_all_19_combos_present(benchmark, rel):
    groups = benchmark(lambda: set(rel))
    expected = {
        (task, scenario) for task in Task for scenario in PAPER_SCENARIOS
    } - {(Task.MACHINE_TRANSLATION, Scenario.MULTI_STREAM)}
    assert groups == expected


def test_fig8_four_orders_of_magnitude_overall(benchmark, fleet_records):
    """Cheapest-to-fastest spread across the whole corpus ~10^4."""
    def overall_spread():
        # Compare offline throughputs of the extremes on a common task.
        offline = {
            r.system: r.metric for r in fleet_records
            if r.task is Task.IMAGE_CLASSIFICATION_LIGHT
            and r.scenario is Scenario.OFFLINE
        }
        ss = {
            r.system: 1.0 / r.metric for r in fleet_records
            if r.task is Task.IMAGE_CLASSIFICATION_LIGHT
            and r.scenario is Scenario.SINGLE_STREAM
        }
        values = list(offline.values()) + list(ss.values())
        return max(values) / min(values)

    spread = benchmark(overall_spread)
    print(f"\n  overall mobilenet performance spread: {spread:.0f}x")
    assert spread > 1e3


def test_fig8_popular_combos_spread_100x(benchmark, rel):
    spreads = benchmark(lambda: {
        key: max(values.values()) for key, values in rel.items()
    })
    print()
    for (task, scenario), spread in sorted(
            spreads.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        print(f"  {task.value:20s} {scenario.short_name:3s} {spread:9.1f}x")
    assert spreads[(Task.IMAGE_CLASSIFICATION_HEAVY,
                    Scenario.SINGLE_STREAM)] > 100
    assert spreads[(Task.IMAGE_CLASSIFICATION_HEAVY,
                    Scenario.OFFLINE)] > 100
    assert spreads[(Task.OBJECT_DETECTION_LIGHT, Scenario.OFFLINE)] > 100


def test_fig8_gnmt_server_varies_least_among_server_groups(benchmark, rel):
    def server_spreads():
        return {
            task: max(rel[(task, Scenario.SERVER)].values())
            for task in Task
        }

    spreads = benchmark(server_spreads)
    # GNMT server variation is much smaller than the vision extremes.
    assert spreads[Task.MACHINE_TRANSLATION] < \
        0.5 * max(spreads.values())


def test_fig8_normalization_floor_is_one(benchmark, rel):
    minima = benchmark(lambda: [min(v.values()) for v in rel.values()])
    assert all(m == pytest.approx(1.0) for m in minima)
