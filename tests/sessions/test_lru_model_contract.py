"""``_LruModel`` against a reference that recounts its residents on
demand: the model the live cache and the offline audit share must emit
the same events, eviction points included, however it keeps its total.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sessions.cache import CacheEvent, _LruModel

pytestmark = pytest.mark.sessions


class RecountingLru:
    """The documented behaviour, spelled the slow way: LRU by session,
    a token capacity, the total summed whenever it is asked for, and the
    just-touched session never evicted."""

    def __init__(self, capacity_tokens):
        self.capacity_tokens = capacity_tokens
        self.resident = {}  # session -> tokens, LRU first

    def _evict_around(self, session_id):
        evicted = []
        while (sum(self.resident.values()) > self.capacity_tokens
               and len(self.resident) > 1):
            victim = next(iter(self.resident))
            if victim == session_id:
                break
            evicted.append(("evict", victim, -1, self.resident.pop(victim)))
        return evicted

    def access(self, session_id, turn_index, prefix, new, response):
        reused = min(self.resident.pop(session_id, 0), prefix)
        if prefix > 0 and reused == prefix:
            kind = "hit"
        elif reused > 0:
            kind = "partial"
        else:
            kind = "miss"
        self.resident[session_id] = prefix + new + response
        return ([(kind, session_id, turn_index, reused)]
                + self._evict_around(session_id))

    def admit(self, session_id, tokens):
        resident = max(self.resident.pop(session_id, 0), tokens)
        self.resident[session_id] = resident
        return ([("admit", session_id, -1, resident)]
                + self._evict_around(session_id))


ACCESS = st.tuples(st.just("access"), st.integers(0, 5), st.integers(0, 9),
                   st.integers(0, 60), st.integers(1, 20), st.integers(1, 20))
ADMIT = st.tuples(st.just("admit"), st.integers(0, 5), st.integers(1, 80))


def check_step(model, reference, step):
    op, args = step[0], step[1:]
    events = getattr(model, op)(*args)
    assert events == getattr(reference, op)(*args)
    assert all(type(e) is CacheEvent for e in events)
    assert [e.kind for e in events[1:]] == ["evict"] * (len(events) - 1)
    assert model.resident_tokens == sum(model._resident.values())
    assert model.resident_tokens == sum(reference.resident.values())
    assert list(model._resident.items()) == list(reference.resident.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.lists(st.one_of(ACCESS, ADMIT), max_size=40))
def test_model_matches_the_recounting_reference(capacity, steps):
    model, reference = _LruModel(capacity), RecountingLru(capacity)
    for step in steps:
        check_step(model, reference, step)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(ACCESS, ADMIT), max_size=30))
def test_capacity_one_keeps_exactly_the_session_just_touched(steps):
    model, reference = _LruModel(1), RecountingLru(1)
    for step in steps:
        check_step(model, reference, step)
        assert list(model._resident) == [step[1]]


def test_a_conversation_larger_than_the_cache_keeps_its_own_entry():
    model = _LruModel(100)
    model.access(1, 0, 0, 30, 30)
    model.access(2, 0, 0, 20, 20)
    events = model.access(3, 0, 0, 400, 100)
    # Everyone else goes, LRU first; the oversized session stays.
    assert events == [CacheEvent("miss", 3, 0, 0),
                      CacheEvent("evict", 1, -1, 60),
                      CacheEvent("evict", 2, -1, 40)]
    assert model.resident_tokens == 500 and len(model._resident) == 1
    # Its next turn still finds its whole prefix.
    assert model.access(3, 1, 500, 10, 10) == [CacheEvent("hit", 3, 1, 500)]
    assert model.resident_tokens == 520
    # And an admit that does not fit evicts it only for someone newer.
    assert model.admit(4, 50) == [CacheEvent("admit", 4, -1, 50),
                                  CacheEvent("evict", 3, -1, 520)]
    assert model.resident_tokens == 50


def test_eviction_stops_the_moment_the_cache_fits():
    model = _LruModel(100)
    for session in range(4):
        model.access(session, 0, 0, 10, 15)  # 25 each: exactly full
    assert model.resident_tokens == 100
    events = model.access(4, 0, 0, 10, 15)  # 25 more: one victim is enough
    assert events == [CacheEvent("miss", 4, 0, 0),
                      CacheEvent("evict", 0, -1, 25)]
    assert model.resident_tokens == 100
    events = model.access(5, 0, 0, 10, 16)  # one token over: two go
    assert events == [CacheEvent("miss", 5, 0, 0),
                      CacheEvent("evict", 1, -1, 25),
                      CacheEvent("evict", 2, -1, 25)]
    assert model.resident_tokens == 76


def test_admit_never_shrinks_what_is_resident():
    model = _LruModel(1000)
    model.access(7, 0, 0, 50, 50)
    assert model.admit(7, 40) == [CacheEvent("admit", 7, -1, 100)]
    assert model.admit(7, 140) == [CacheEvent("admit", 7, -1, 140)]
    assert model.resident_tokens == 140
