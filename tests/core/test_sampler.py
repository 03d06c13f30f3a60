"""Sample selection: with-replacement draws, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampler import (
    QueryFactory,
    SampleSelector,
    accuracy_mode_indices,
)


class TestSampleSelector:
    def test_draws_come_from_loaded_set(self):
        selector = SampleSelector([5, 9, 13], seed=1)
        draws = selector.draw(200)
        assert set(draws) <= {5, 9, 13}

    def test_same_seed_same_sequence(self):
        a = SampleSelector(range(100), seed=42).draw(50)
        b = SampleSelector(range(100), seed=42).draw(50)
        assert a == b

    def test_different_seed_different_sequence(self):
        a = SampleSelector(range(100), seed=1).draw(50)
        b = SampleSelector(range(100), seed=2).draw(50)
        assert a != b

    def test_with_replacement_produces_duplicates(self):
        # Drawing far more than the pool size must repeat indices.
        draws = SampleSelector(range(4), seed=0).draw(64)
        assert len(set(draws)) <= 4
        assert len(draws) == 64

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            SampleSelector([], seed=0)

    def test_numpy_pool_accepted(self):
        """``if not loaded_indices`` raised "truth value of an array is
        ambiguous" here."""
        from_array = SampleSelector(np.array([5, 9, 13]), seed=1).draw(50)
        assert from_array == SampleSelector([5, 9, 13], seed=1).draw(50)
        assert all(type(index) is int for index in from_array)

    def test_empty_numpy_pool_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SampleSelector(np.array([], dtype=np.int64), seed=0)

    def test_nonpositive_count_rejected(self):
        selector = SampleSelector([1], seed=0)
        with pytest.raises(ValueError):
            selector.draw(0)

    @given(st.integers(min_value=1, max_value=500))
    def test_draw_count_respected(self, count):
        selector = SampleSelector(range(10), seed=3)
        assert len(selector.draw(count)) == count

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pool_size=st.integers(min_value=1, max_value=5000),
        counts=st.lists(
            st.one_of(
                st.just(1),
                st.integers(min_value=2, max_value=64),
                st.sampled_from([24_576, 24_577, 30_000]),
            ),
            min_size=1, max_size=40),
    )
    def test_any_mix_of_draw_counts_is_one_bulk_draw(
            self, seed, pool_size, counts):
        """Every digest in the repo rests on this: however the draws are
        sized (Server's 1, MultiStream's N, Offline's 24,576, in any
        order), the selector hands out the seed's one sequence - the
        pool indexed by a single ``integers`` draw of the total."""
        # Not range(pool_size): the mapping through the pool must show.
        pool = [7 + 3 * i for i in range(pool_size)]
        selector = SampleSelector(pool, seed=seed)
        drawn = []
        for count in counts:
            part = selector.draw(count)
            assert len(part) == count
            drawn.extend(part)
        picks = np.random.default_rng(seed).integers(
            0, pool_size, size=sum(counts))
        assert drawn == np.asarray(pool)[picks].tolist()
        assert all(type(index) is int for index in drawn[:100])


class TestQueryFactory:
    def test_unique_query_ids(self):
        factory = QueryFactory()
        queries = [factory.make_query([0]) for _ in range(10)]
        ids = [q.id for q in queries]
        assert len(set(ids)) == 10

    def test_unique_sample_ids_across_queries(self):
        factory = QueryFactory()
        a = factory.make_query([7, 7])
        b = factory.make_query([7])
        all_ids = [s.id for s in a.samples] + [s.id for s in b.samples]
        assert len(set(all_ids)) == 3

    def test_sample_indices_preserved_in_order(self):
        factory = QueryFactory()
        query = factory.make_query([3, 1, 4, 1, 5])
        assert query.sample_indices == (3, 1, 4, 1, 5)


class TestAccuracyMode:
    def test_visits_every_index_once(self):
        assert accuracy_mode_indices(5) == [0, 1, 2, 3, 4]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            accuracy_mode_indices(0)
