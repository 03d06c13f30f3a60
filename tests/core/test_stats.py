"""Statistical machinery: Eq. 1-2, Table IV, percentiles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    QUERY_ROUNDING_UNIT,
    QueryRequirement,
    inverse_normal_cdf,
    margin_for_tail_latency,
    percentile,
    percentiles,
    queries_for_confidence,
    required_queries,
    round_up_to_unit,
    table_iv,
)


class TestInverseNormal:
    def test_median(self):
        assert abs(inverse_normal_cdf(0.5)) < 1e-12

    def test_known_quantiles(self):
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert inverse_normal_cdf(0.005) == pytest.approx(-2.575829, abs=1e-5)
        assert inverse_normal_cdf(0.841344746) == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=200)
    def test_roundtrip_with_cdf(self, p):
        z = inverse_normal_cdf(p)
        assert 0.5 * math.erfc(-z / math.sqrt(2.0)) == pytest.approx(
            p, abs=1e-8)

    @given(st.floats(min_value=1e-6, max_value=0.5 - 1e-6))
    def test_symmetry(self, p):
        assert inverse_normal_cdf(p) == pytest.approx(
            -inverse_normal_cdf(1.0 - p), abs=1e-8
        )

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for p in (0.001, 0.01, 0.1, 0.3, 0.5, 0.9, 0.975, 0.99, 0.9999):
            assert inverse_normal_cdf(p) == pytest.approx(
                float(scipy_stats.norm.ppf(p)), abs=1e-8
            )


class TestEquations:
    def test_margin_equation_1(self):
        # Margin = (1 - TailLatency) / 20
        assert margin_for_tail_latency(0.90) == pytest.approx(0.005)
        assert margin_for_tail_latency(0.95) == pytest.approx(0.0025)
        assert margin_for_tail_latency(0.99) == pytest.approx(0.0005)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5])
    def test_margin_domain(self, bad):
        with pytest.raises(ValueError):
            margin_for_tail_latency(bad)

    def test_equation_2_paper_values(self):
        # The exact Table IV inference counts.
        assert queries_for_confidence(0.90) == 23_886
        assert queries_for_confidence(0.95) == 50_425
        assert queries_for_confidence(0.99) == 262_742

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_no_margin_rejected(self, bad):
        # Equation 1 gives no positive margin at or past 100%.
        with pytest.raises(ValueError):
            queries_for_confidence(bad)

    def test_tighter_percentile_needs_more_queries(self):
        counts = [queries_for_confidence(p) for p in (0.90, 0.95, 0.99)]
        assert counts == sorted(counts)
        # Highly nonlinear: 99th needs >10x the 90th.
        assert counts[2] > 10 * counts[0]


class TestRounding:
    def test_rounds_to_power_of_two_multiple(self):
        assert round_up_to_unit(23_886) == 3 * 2 ** 13
        assert round_up_to_unit(50_425) == 7 * 2 ** 13
        assert round_up_to_unit(262_742) == 33 * 2 ** 13

    def test_exact_multiple_unchanged(self):
        assert round_up_to_unit(2 ** 13) == 2 ** 13

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_up_to_unit(0)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_rounding_properties(self, count):
        rounded = round_up_to_unit(count)
        assert rounded >= count
        assert rounded % QUERY_ROUNDING_UNIT == 0
        assert rounded - count < QUERY_ROUNDING_UNIT


class TestTableIV:
    def test_rows(self):
        rows = table_iv()
        assert [r.tail_latency for r in rows] == [0.90, 0.95, 0.99]
        assert [r.rounded_inferences for r in rows] == [
            24_576, 57_344, 270_336,
        ]

    def test_required_queries_shortcut(self):
        assert required_queries(0.99) == 270_336
        assert required_queries(0.90) == 24_576

    def test_requirement_record_consistency(self):
        req = QueryRequirement.for_percentile(0.95)
        assert req.margin == pytest.approx(0.0025)
        assert req.inferences == 50_425
        assert req.rounded_inferences == 57_344


class TestPercentile:
    def test_nearest_rank_simple(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.90) == 9
        assert percentile(values, 0.50) == 5
        assert percentile(values, 1.0) == 10

    def test_single_value(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_unsorted_input(self):
        assert percentile([5, 1, 3, 2, 4], 0.8) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.9)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_bad_pct_rejected(self, bad):
        with pytest.raises(ValueError):
            percentile([1.0], bad)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=1.0))
    def test_percentile_is_a_member_and_bounds(self, values, pct):
        result = percentile(values, pct)
        assert result in values
        # At least pct of values are <= result (nearest-rank definition).
        at_or_below = sum(1 for v in values if v <= result)
        assert at_or_below >= math.ceil(pct * len(values))

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=60),
           st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1,
                    max_size=5))
    def test_percentiles_take_every_rank_from_one_sort(self, values, pcts):
        """Few distinct values, so most ranks land inside a run of ties."""
        results = percentiles(values, pcts)
        assert results == [percentile(values, pct) for pct in pcts]
        for pct, result in zip(pcts, results):
            # The definition, not the implementation: the smallest
            # member with at least ceil(pct * n) values at or below it.
            need = math.ceil(pct * len(values))
            assert sum(v <= result for v in values) >= need
            assert all(sum(v <= smaller for v in values) < need
                       for smaller in values if smaller < result)

    def test_percentiles_reject_what_percentile_rejects(self):
        with pytest.raises(ValueError):
            percentiles([], (0.5, 0.9))
        with pytest.raises(ValueError):
            percentiles([1.0], (0.5, 1.5))
