"""Counter/Gauge/Histogram primitives: boundaries, error bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import percentile as stats_percentile

from repro.metrics import Counter, Gauge, Histogram
from repro.metrics.primitives import DEFAULT_GROWTH


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_rejects_a_non_finite_increment_before_counting(self, amount):
        c = Counter()
        c.inc(2.0)
        with pytest.raises(ValueError, match="finite"):
            c.inc(amount)
        assert c.value == 2.0
        c.inc()
        assert c.value == 3.0

    def test_callback_counter_reads_a_float_and_rejects_writes(self):
        ledger = {"retries": 3}
        c = Counter(fn=lambda: ledger["retries"])
        assert c.value == 3.0 and type(c.value) is float
        ledger["retries"] = 5
        assert c.value == 5.0
        with pytest.raises(ValueError):
            c.inc()


class TestGauge:
    def test_set_replaces_the_value(self):
        g = Gauge()
        g.set(10)
        g.set(13)
        assert g.value == 13.0

    def test_callback_gauge_pulls_live_state(self):
        state = {"depth": 0}
        g = Gauge(fn=lambda: state["depth"])
        assert g.value == 0.0
        state["depth"] = 7
        assert g.value == 7.0

    def test_callback_gauge_rejects_writes(self):
        g = Gauge(fn=lambda: 1)
        with pytest.raises(ValueError):
            g.set(2)


class TestHistogramBuckets:
    def test_first_bucket_holds_everything_up_to_base(self):
        h = Histogram(base=1.0, growth=2.0, buckets=8)
        for v in (-1.0, 0.0, 0.5, 1.0):
            h.observe(v)
        assert h.nonzero_buckets() == [(0, 4)]

    def test_bucket_edges_are_half_open_on_the_left(self):
        # Bucket k covers (base*growth**(k-1), base*growth**k]: a value
        # exactly on an upper edge belongs to that bucket, the next
        # representable value above it to the one after.
        h = Histogram(base=1.0, growth=2.0, buckets=8)
        h.observe(2.0)          # edge of bucket 1
        h.observe(math.nextafter(2.0, 3.0))  # just over -> bucket 2
        assert h.nonzero_buckets() == [(1, 1), (2, 1)]

    def test_geometric_edges(self):
        h = Histogram(base=1e-3, growth=2.0, buckets=8)
        assert h.bucket_upper(0) == pytest.approx(1e-3)
        assert h.bucket_upper(3) == pytest.approx(8e-3)
        assert h.bucket_lower(3) == pytest.approx(4e-3)
        assert h.bucket_lower(0) == 0.0
        assert math.isinf(h.bucket_upper(7))

    def test_overflow_lands_in_last_bucket(self):
        h = Histogram(base=1.0, growth=2.0, buckets=4)
        h.observe(1e9)
        assert h.nonzero_buckets() == [(3, 1)]

    def test_boundary_indexing_survives_float_wobble(self):
        # Every computed upper edge must index into its own bucket.
        h = Histogram()
        for k in range(0, 400, 7):
            edge = h.bucket_upper(k)
            assert h._index(edge) == k, f"edge of bucket {k} misfiled"

    @given(st.floats(min_value=-1.0, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_inlined_observe_files_where_index_says(self, value):
        h = Histogram()
        h.observe(value)
        assert h.nonzero_buckets() == [(h._index(value), 1)]

    def test_observe_files_every_edge_into_its_own_bucket(self):
        h = Histogram()
        for k in range(0, 400, 7):
            one = Histogram()
            one.observe(h.bucket_upper(k))
            assert one.nonzero_buckets() == [(k, 1)], k

    def test_exact_count_sum_min_max(self):
        h = Histogram()
        values = [0.004, 0.0021, 0.9, 1e-7, 0.05]
        for v in values:
            h.observe(v)
        assert h.count == len(values)
        assert h.sum == pytest.approx(sum(values))
        assert h.min == min(values)
        assert h.max == max(values)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_empty_histogram_reads_zero(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.min == 0.0
        assert h.max == 0.0
        assert h.percentile(0.99) == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Histogram(base=0.0)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)
        with pytest.raises(ValueError):
            Histogram(buckets=1)


class TestPercentileReconstruction:
    def test_single_value_is_exact(self):
        h = Histogram()
        h.observe(0.0123)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.percentile(q) == pytest.approx(0.0123)

    def test_min_max_are_exact(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004, 0.008, 0.5):
            h.observe(v)
        # p0 sits in the smallest occupied bucket (within its width);
        # p100 clamps to the exact observed max.
        assert h.percentile(0.0) == pytest.approx(0.001, rel=0.05)
        assert h.percentile(1.0) == pytest.approx(0.5)

    def test_relative_error_bounded_by_growth(self):
        """The reconstruction error bound the docs promise: interior
        percentiles are within ``growth - 1`` of the true order
        statistic (nearest-rank convention)."""
        rng = np.random.default_rng(7)
        data = rng.lognormal(mean=-6.0, sigma=1.2, size=5000)
        h = Histogram()
        for v in data:
            h.observe(float(v))
        ordered = np.sort(data)
        bound = DEFAULT_GROWTH - 1.0
        for q in (0.5, 0.9, 0.99, 0.999):
            rank = max(1, math.ceil(q * len(ordered)))
            true = float(ordered[rank - 1])
            est = h.percentile(q)
            assert abs(est - true) / true <= bound, (
                f"p{q}: {est} vs true {true}"
            )

    def test_rank_convention_matches_core_stats(self):
        from repro.core.stats import percentile as exact_percentile

        # With values spread one per bucket the reconstruction targets
        # the same order statistic as the exact nearest-rank
        # implementation: the estimate lands in that observation's
        # bucket (within a growth factor of it), never a neighbour's.
        h = Histogram(base=1.0, growth=4.0, buckets=16)
        values = [2.0, 8.0, 32.0, 128.0, 512.0]
        for v in values:
            h.observe(v)
        for q in (0.2, 0.4, 0.6, 0.8, 1.0):
            exact = exact_percentile(values, q)
            est = h.percentile(q)
            assert exact / 4.0 < est <= exact * 4.0

    def test_quantile_out_of_range_raises(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)
        with pytest.raises(ValueError):
            h.percentile(-0.1)

    def test_percentiles_batch(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        batch = h.percentiles([0.5, 0.99])
        assert batch == [h.percentile(0.5), h.percentile(0.99)]


class TestPercentileNearestRank:
    """The live histogram must track the exact nearest-rank convention
    of ``repro.core.stats.percentile`` (ISSUE 4 satellite)."""

    GROWTH = 2.0 ** 0.25

    def _hist(self, values):
        h = Histogram(base=0.001, growth=self.GROWTH, buckets=96)
        for v in values:
            h.observe(v)
        return h

    def test_q_zero_is_exact_min(self):
        h = self._hist([3.7, 0.2, 9.9])
        assert h.percentile(0.0) == 0.2

    def test_q_one_is_exact_max(self):
        h = self._hist([3.7, 0.2, 9.9])
        assert h.percentile(1.0) == 9.9

    def test_empty_returns_zero(self):
        h = Histogram()
        assert h.percentile(0.0) == 0.0
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 0.0

    def test_single_observation_every_q(self):
        h = self._hist([4.2])
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 4.2

    def test_single_bucket_interior_rank_is_exact(self):
        """All mass in one bucket: the clamp to tracked min/max makes
        even interior ranks exact when the bucket holds one value."""
        h = self._hist([5.0, 5.0, 5.0])
        assert h.percentile(0.5) == 5.0

    def test_exact_at_bucket_boundaries(self):
        """Observations sitting exactly on bucket upper edges reproduce
        the nearest-rank answer with zero interpolation error."""
        h = Histogram(base=1.0, growth=2.0, buckets=16)
        edges = [1.0, 2.0, 4.0, 8.0, 16.0]
        for v in edges:
            h.observe(v)
        for rank, expected in enumerate(edges, start=1):
            q = rank / len(edges)
            assert h.percentile(q) == expected
            assert expected == stats_percentile(edges, q)

    def test_corrupt_counts_raise_instead_of_silent_max(self):
        """The old fall-through silently answered ``max``; inconsistent
        bucket state must now fail loudly."""
        h = self._hist([1.0, 2.0, 3.0, 4.0])
        h._counts = [0] * len(h._counts)  # corrupt: count says 4
        with pytest.raises(RuntimeError):
            h.percentile(0.5)

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e3,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200),
        q=st.floats(min_value=0.0, max_value=1.0,
                    allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_tracks_exact_implementation_on_random_data(self, values, q):
        h = self._hist(values)
        estimate = h.percentile(q)
        rank = max(1, math.ceil(q * len(values)))
        exact = sorted(values)[rank - 1]
        if q > 0.0:
            assert exact == stats_percentile(values, q)
        if rank <= 1:
            assert estimate == min(values)
        elif rank >= len(values):
            assert estimate == max(values)
        else:
            assert min(values) <= estimate <= max(values)
            # Estimate and exact value share a bucket, so the error is
            # bounded by that bucket's width: relative (growth - 1)
            # above ``base``, absolute ``base`` below it.
            bound = max(0.001, exact * (self.GROWTH - 1.0)) + 1e-9
            assert abs(estimate - exact) <= bound

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e3,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=80),
        qs=st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False),
                    min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_percentiles_identical_to_scalar(self, values, qs):
        h = self._hist(values)
        assert h.percentiles(qs) == [h.percentile(q) for q in qs]


class TestHistogramRejectsNonFinite:
    """A non-finite observation is refused before it touches anything:
    count, sum, min, max and the buckets stay as they were."""

    def state(self, h):
        return (h.count, h.sum, h.min, h.max, h.nonzero_buckets())

    def refused(self, value):
        h = Histogram()
        h.observe(0.004)
        before = self.state(h)
        with pytest.raises(ValueError, match="non-finite"):
            h.observe(value)
        assert self.state(h) == before
        h.observe(0.002)  # and it still records
        assert h.count == 2 and sum(c for _, c in h.nonzero_buckets()) == 2

    def test_nan(self):
        self.refused(math.nan)

    def test_positive_infinity(self):
        self.refused(math.inf)

    def test_negative_infinity(self):
        self.refused(-math.inf)
