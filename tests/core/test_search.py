"""``repro.core.search.max_valid`` alone: a pure function, no LoadGen run.

The probe everywhere is ``x <= c`` for a threshold ``c`` the search does
not know.  ``tests/harness/test_search_contract.py`` pins what the four
callers probe; this file holds the engine to what it promises for *any*
threshold, start, axis and budget.
"""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task
from repro.core.search import INTEGER, geometric, linear, max_valid
from repro.harness import tuning
from repro.harness.tuning import RunScale, find_max_multistream_n

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

thresholds = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6), st.just(math.inf))
budgets = st.integers(min_value=1, max_value=60)


def search(c, lo, axis, **kwargs):
    """Run the engine against ``x <= c`` and check what holds on every
    axis: honest trail, no repeats, budget kept, best valid returned."""
    found = max_valid(lambda x: x <= c, lo, axis, **kwargs)
    probed = [value for value, _ in found.trail]
    assert probed[0] == lo
    assert len(set(probed)) == len(probed), "a value was probed twice"
    assert len(probed) <= kwargs.get("max_probes", math.inf)
    assert [valid for _, valid in found.trail] == [
        value <= c for value in probed]
    valid = [value for value in probed if value <= c]
    assert found.value == (max(valid) if valid else None)
    if found.value is None:
        assert found.outcome is None and not found.open
    else:
        assert found.outcome is True
        # open <=> nothing above the answer was seen to fail
        assert found.open == (max(probed) == found.value)
    return found, probed


@settings(max_examples=300, deadline=None)
@given(c=thresholds, start=st.floats(min_value=1e-2, max_value=1e4),
       factor=st.floats(min_value=2.0, max_value=8.0),
       tolerance=st.floats(min_value=0.01, max_value=0.5),
       floor=st.floats(min_value=1e-3, max_value=1e-1), budget=budgets)
def test_geometric_axis(c, start, factor, tolerance, floor, budget):
    found, probed = search(c, start, geometric(factor, tolerance),
                           floor=floor, max_probes=budget)
    in_budget = len(probed) < budget
    if found.value is None:
        # Nothing valid: the next step down would cross the floor.
        assert not in_budget or min(probed) / factor < floor
    elif found.open:
        assert not in_budget  # no ceiling: only the budget stops growth
    elif in_budget:
        assert found.value <= c < found.value * (1 + tolerance) * (1 + 1e-12)


@settings(max_examples=300, deadline=None)
@given(c=thresholds, low=st.floats(min_value=0.5, max_value=100.0),
       width=st.floats(min_value=1.0, max_value=1000.0),
       resolution=st.floats(min_value=0.25, max_value=50.0),
       budget=budgets, bracket_given=st.booleans())
def test_linear_axis(c, low, width, resolution, budget, bracket_given):
    high = low + width
    top = {"hi": high} if bracket_given else {"ceiling": high}
    found, probed = search(c, low, linear(resolution), max_probes=budget,
                           **top)
    in_budget = len(probed) < budget
    assert max(probed) <= high
    if found.value is None:
        assert probed == [low]  # no floor given: nothing below is tried
    elif found.open:
        assert not in_budget or found.value == high
    elif in_budget:
        assert 0 <= c - found.value <= resolution * (1 + 1e-9)


@settings(max_examples=300, deadline=None)
@given(c=thresholds, low=st.floats(min_value=0.5, max_value=100.0),
       width=st.floats(min_value=1.0, max_value=1000.0),
       resolution=st.floats(min_value=0.25, max_value=50.0))
def test_linear_axis_agrees_with_the_step_scan(c, low, width, resolution):
    high = low + width
    found, _ = search(c, low, linear(resolution), hi=high)
    # The reference: walk up from ``low`` in ``resolution`` steps.
    walked, qps = None, low
    while qps <= high and qps <= c:
        walked = qps
        qps += resolution
    if walked is None:
        assert found.value is None
    else:
        assert abs(found.value - walked) <= resolution * (1 + 1e-9)


@settings(max_examples=300, deadline=None)
@given(c=st.one_of(st.floats(min_value=0.0, max_value=5000.0),
                   st.just(math.inf)),
       cap=st.integers(min_value=1, max_value=5000))
def test_integer_axis_is_exact_up_to_any_cap(c, cap):
    found, probed = search(c, 1, INTEGER, ceiling=cap)
    assert all(isinstance(n, int) for n in probed)
    if c < 1:
        assert found.value is None and probed == [1]
    else:
        assert found.value == math.floor(min(c, cap))
        assert found.open == (c >= cap)


@settings(max_examples=200, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=5000.0), budget=budgets)
def test_integer_axis_within_a_budget(c, budget):
    found, probed = search(c, 1, INTEGER, max_probes=budget)
    if c >= 1 and len(probed) < budget:
        assert found.value == math.floor(c) and not found.open


# -- the three endings, spelled out -----------------------------------------

def test_endings():
    axis = geometric(4.0, 0.05)
    nothing = max_valid(lambda x: False, 1.0, axis, floor=0.1)
    assert (nothing.value, nothing.open) == (None, False)
    assert [x for x, _ in nothing.trail] == [1.0, 0.25]

    found = max_valid(lambda x: x <= 3.0 and ("ran", x), 1.0, axis)
    assert found.outcome == ("ran", found.value)  # the probe's own outcome
    assert found.value <= 3.0 < found.value * 1.05 and not found.open

    budget = max_valid(lambda x: True, 1.0, axis, max_probes=3)
    assert (budget.value, budget.open) == (16.0, True)
    ceiling = max_valid(lambda x: True, 1, INTEGER, ceiling=8)
    assert (ceiling.value, ceiling.open, len(ceiling.trail)) == (8, True, 4)
    given_hi = max_valid(lambda x: True, 1.0, linear(1.0), hi=9.0)
    assert (given_hi.value, given_hi.open, len(given_hi.trail)) == (
        9.0, True, 2)


# -- regression: a cap that is not a power of two ---------------------------

@pytest.mark.parametrize("capacity, expected", [
    (300, 300.0), (450, 450.0), (math.inf, 500.0),
])
def test_multistream_search_looks_above_the_last_power_of_two(
        monkeypatch, capacity, expected):
    """``max_n=500``: the doubling stops at 256 because 512 is past the
    cap - the search used to return 256 without looking at (256, 500]."""
    probed = []

    def run(sut, qsl, settings):
        probed.append(settings.multistream_samples_per_query)
        return type("Result", (), {"valid": probed[-1] <= capacity})()

    monkeypatch.setattr(tuning, "run_benchmark", run)
    tuned = find_max_multistream_n(
        object, None, Task.IMAGE_CLASSIFICATION_HEAVY, RunScale(),
        max_n=500, seed=0)
    assert tuned.value == expected
    assert probed[:10] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 500]
    assert tuned.probes == len(probed)


# -- one mechanism ----------------------------------------------------------

MIDPOINTS = re.compile(
    # sqrt(lo * hi), (lo + hi) / 2, (low + high) // 2
    r"sqrt\(\s*lo\w*\s*\*\s*hi\w*\s*\)"
    r"|\(\s*lo\w*\s*\+\s*hi\w*\s*\)\s*//?\s*2"
)


def test_midpoint_arithmetic_lives_in_the_engine_only():
    """A fifth hand-rolled bracket-and-bisect loop fails here."""
    assert MIDPOINTS.search("mid = math.sqrt(lo * hi)")
    assert MIDPOINTS.search("mid = (lo + hi) / 2.0")
    assert MIDPOINTS.search("mid = (low + high) // 2")
    found = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if MIDPOINTS.search(path.read_text()))
    assert found == ["core/search.py"]


def test_the_searches_hold_no_loop_of_their_own():
    import ast
    import inspect
    import textwrap

    from repro.fleet import SweepHarness
    from repro.harness.tuning import find_max_burst_rate, find_max_server_qps

    for function in (find_max_server_qps, find_max_multistream_n,
                     find_max_burst_rate, SweepHarness.run):
        source = textwrap.dedent(inspect.getsource(function))
        assert not any(isinstance(node, ast.While)
                       for node in ast.walk(ast.parse(source))), function


def test_burst_probes_carry_every_field_of_the_callers_settings(monkeypatch):
    """A field ``TestSettings`` gains later must reach every probe."""
    from dataclasses import dataclass

    from repro.core import Scenario, TestSettings
    from repro.harness import tuning
    from repro.harness.tuning import find_max_burst_rate

    @dataclass
    class Tagged(TestSettings):
        tag: str = ""

    probed = []

    def run(sut, qsl, settings):
        probed.append(settings)
        rate = settings.server_target_qps / settings.server_burst_size
        return type("Result", (), {"valid": rate <= 5.0})()

    monkeypatch.setattr(tuning, "run_benchmark", run)
    find_max_burst_rate(object, None, Tagged(
        scenario=Scenario.SERVER, task=Task.IMAGE_CLASSIFICATION_HEAVY,
        server_burst_size=8, server_target_qps=8.0, tag="kept"))
    assert len(probed) > 2
    assert all(type(settings) is Tagged and settings.tag == "kept"
               and settings.server_burst_size == 8 for settings in probed)
