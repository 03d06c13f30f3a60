"""The Figure 1 full-size model family."""

import pytest

from repro.models.family import (
    INPUT,
    MODEL_FAMILY,
    family_points,
    pareto_frontier,
)


@pytest.fixture(scope="module")
def points():
    return family_points()


def test_family_size(points):
    assert len(points) == len(MODEL_FAMILY) == 11


def test_complexity_varies_dramatically(points):
    """Figure 1: ~50x (and more) spread in GOPs across the family."""
    gops = [g for _n, g, _a in points]
    assert max(gops) / min(gops) > 50


def test_accuracy_spans_a_wide_band(points):
    accs = [a for _n, _g, a in points]
    assert max(accs) - min(accs) > 25


def test_small_accuracy_deltas_cost_5_to_10x(points):
    """'Even a small accuracy change (e.g., a few percent) can
    drastically alter the computational requirements (e.g., by 5-10x).'"""
    found = False
    for name_a, gops_a, acc_a in points:
        for name_b, gops_b, acc_b in points:
            if name_a == name_b:
                continue
            if abs(acc_a - acc_b) <= 3.0 and gops_a / gops_b >= 5.0:
                found = True
    assert found


def test_pareto_frontier_is_nontrivial(points):
    frontier = pareto_frontier(points)
    # No single optimum; several members are non-dominated.
    assert 3 <= len(frontier) < len(points)
    assert "ResNet-152" in frontier        # accuracy extreme
    assert "MobileNet-v1-0.25" in frontier  # compute extreme


def test_some_members_are_dominated(points):
    """MobileNet-v2 made v1-1.0 and ResNet-18 non-frontier points."""
    frontier = set(pareto_frontier(points))
    assert "ResNet-18" not in frontier
    assert "MobileNet-v1-1.0" not in frontier


def test_parameters_available_for_all(points):
    for member in MODEL_FAMILY:
        assert member.build().param_count(INPUT) > 1e5
