"""The seeded stream model: deterministic plans, honest validation."""

import math

import pytest

from repro.streaming import StreamModel

pytestmark = pytest.mark.streaming


def test_plans_are_deterministic_per_query_id():
    model = StreamModel(seed=3)
    assert model.plan(17) == model.plan(17)
    assert StreamModel(seed=3).plan(17) == model.plan(17)


def test_different_queries_and_seeds_get_different_plans():
    model = StreamModel(seed=3)
    plans = {model.plan(qid).chunks for qid in range(20)}
    assert len(plans) > 1
    assert StreamModel(seed=4).plan(17) != model.plan(17)


def test_plan_shape_respects_the_model():
    model = StreamModel(
        first_token_delay=0.002, inter_token_delay=0.0005,
        min_tokens=5, max_tokens=9, seed=0)
    for qid in range(50):
        plan = model.plan(qid)
        assert 5 <= plan.token_count <= 9
        assert sum(c.token_count for c in plan.chunks) == plan.token_count
        assert all(c.token_count == 1 for c in plan.chunks)
        # Exactly one final chunk, at the end.
        assert [c.last for c in plan.chunks].count(True) == 1
        assert plan.chunks[-1].last
        # Offsets are non-decreasing; the first token obeys its delay.
        offsets = [c.offset for c in plan.chunks]
        assert offsets == sorted(offsets)
        assert offsets[0] == pytest.approx(0.002)


@pytest.mark.parametrize("kwargs", [
    dict(first_token_delay=-0.001),
    dict(inter_token_delay=-0.001),
    dict(min_tokens=0),
    dict(max_tokens=2, min_tokens=3),
])
def test_invalid_models_are_rejected(kwargs):
    with pytest.raises(ValueError):
        StreamModel(**kwargs)


@pytest.mark.parametrize("field", ["first_token_delay", "inter_token_delay"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_delays_are_rejected(field, bad):
    """NaN was read as 0 (a VALID run), and an infinite inter-token delay
    put every chunk after the first at t = inf."""
    with pytest.raises(ValueError, match=f"^{field} must be >= 0, got "):
        StreamModel(**{field: bad})
