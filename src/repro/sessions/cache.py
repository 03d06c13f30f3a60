"""Shared-prefix cache: an auditable KV-cache stand-in for session runs.

:class:`PrefixCacheSUT` wraps any SUT and models what a real serving
stack's prefix (KV) cache does for multi-turn traffic: a turn whose
conversation prefix is still resident skips most of its prefill work.
The model is deliberately simple - per-session token counts under LRU
eviction with a token capacity - because the point is not realism, it
is *auditability*: every hit, partial hit, miss, and eviction is
appended to an ordered event list, and :func:`audit_cache_events`
replays that access order through an independent LRU model built only
from the replay graph and capacity, so the referee can prove the cache
claimed exactly the hits it was entitled to.  The session smoke test
additionally pins the whole event list bit-identical across seeded
runs.

Latency is where the cache shows up in results: a turn is issued to the
inner SUT only after a prefill delay of 50 µs per token that must be
(re)computed plus 2 µs per reused token, so cache effectiveness is
visible in per-session latency and TTFT percentiles, not just in
counters.  See ``docs/sessions.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional

from ..bounds import AT_LEAST_ONE, check_range
from ..core.events import EventLoop
from ..core.query import Query
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..metrics import export_ledger, exported
from ..metrics.ledger import exported_counters
from .replay import ReplayGraph

#: Prefill seconds per token that must be (re)computed, and per prefix
#: token the cache supplies.
_MISS_LATENCY_PER_TOKEN = 50e-6
_HIT_LATENCY_PER_TOKEN = 2e-6


class CacheEvent(NamedTuple):
    """One entry in the cache's ordered audit trail.

    ``kind`` is ``"hit"`` / ``"partial"`` / ``"miss"`` for accesses
    (``tokens`` = prefix tokens reused), ``"evict"`` for evictions
    (``tokens`` = resident tokens released, ``turn_index`` = -1), and
    ``"admit"`` for cross-replica admissions (``tokens`` = resident
    tokens after the admit, ``turn_index`` = -1) - a rescued session's
    prefix installed by the fleet when its replica died mid-turn.
    """

    kind: str
    session_id: int
    turn_index: int
    tokens: int


#: ``CacheEvent((kind, session_id, turn_index, tokens))`` without the
#: namedtuple's Python-level ``__new__``: every turn appends at least one.
_new_event = partial(tuple.__new__, CacheEvent)


@dataclass
class CacheStats:
    """Aggregate cache behavior over one run; every field is exported
    as the ``prefix_cache_*`` counter it names."""

    hits: int = exported(
        "prefix_cache_hits_total",
        "Session turns whose full prefix was resident")
    partial_hits: int = exported(
        "prefix_cache_partial_hits_total",
        "Session turns that reused part of their prefix")
    misses: int = exported(
        "prefix_cache_misses_total",
        "Session turns that reused no prefix tokens")
    evictions: int = exported(
        "prefix_cache_evictions_total",
        "Sessions evicted LRU-first to fit the token capacity")
    admissions: int = exported(
        "prefix_cache_admissions_total",
        "Migrated session prefixes admitted on fleet rescue")
    tokens_reused: int = exported(
        "prefix_cache_tokens_reused_total",
        "Prefix tokens served from cache")
    tokens_missed: int = exported(
        "prefix_cache_tokens_missed_total",
        "Prefix tokens recomputed because they were not resident")

    @property
    def accesses(self) -> int:
        return self.hits + self.partial_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses whose full prefix was resident."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def token_hit_rate(self) -> float:
        """Fraction of prefix tokens served from cache."""
        total = self.tokens_reused + self.tokens_missed
        return self.tokens_reused / total if total else 0.0

    @classmethod
    def merged(cls, parts: "List[CacheStats]") -> "CacheStats":
        """Aggregate several caches' stats (a fleet's per-replica view)."""
        return cls(**{
            spec.name: sum(getattr(part, spec.name) for part in parts)
            for spec in fields(cls)})


class _LruModel:
    """The reference LRU-by-session token cache, shared by the live SUT
    and the offline audit so they cannot drift apart.

    The resident total is kept as a running sum beside the table, so an
    access costs O(1) plus its evictions however many sessions are
    resident; ``tests/sessions/test_lru_model_contract.py`` holds it to
    a reference that recounts on demand.
    """

    def __init__(self, capacity_tokens: int) -> None:
        check_range("capacity_tokens", capacity_tokens, AT_LEAST_ONE)
        self.capacity_tokens = capacity_tokens
        #: session_id -> resident tokens, in LRU -> MRU insertion order.
        self._resident: Dict[int, int] = {}
        #: Tokens resident across all sessions.
        self.resident_tokens = 0

    def access(self, session_id: int, turn_index: int, prefix_tokens: int,
               new_tokens: int, response_tokens: int) -> List[CacheEvent]:
        """Process one turn; return its access event plus any evictions.

        The reused prefix is capped at what is both resident *and*
        claimed by the turn; afterwards the session's entry grows to the
        conversation so far (prefix + prompt + answer) and moves to MRU,
        evicting other sessions LRU-first while over capacity.  The
        just-touched session is never evicted - a conversation larger
        than the whole cache still keeps its own entry.
        """
        cached = self._resident.pop(session_id, 0)
        reused = min(cached, prefix_tokens)
        if prefix_tokens > 0 and reused == prefix_tokens:
            kind = "hit"
        elif reused > 0:
            kind = "partial"
        else:
            kind = "miss"
        events = [_new_event((kind, session_id, turn_index, reused))]
        self._seat(session_id, prefix_tokens + new_tokens + response_tokens,
                   cached, events)
        return events

    def admit(self, session_id: int, tokens: int) -> List[CacheEvent]:
        """Install a migrated session's prefix at MRU without an access.

        Cross-replica admission: the prefix was computed elsewhere (the
        replica that died or was ejected), so it enters this cache as
        already-resident state, not as a miss to recompute.  Residency
        never shrinks - if the session already holds more tokens here,
        the larger amount stays - and the admit evicts LRU-first over
        capacity exactly like an access.  Returns the admit event (with
        the post-admit resident amount) plus any evictions.
        """
        cached = self._resident.pop(session_id, 0)
        resident = max(cached, tokens)
        events = [_new_event(("admit", session_id, -1, resident))]
        self._seat(session_id, resident, cached, events)
        return events

    def _seat(self, session_id: int, tokens: int, cached: int,
              events: List[CacheEvent]) -> None:
        """Seat ``session_id`` (just popped holding ``cached``) at MRU
        with ``tokens``, then evict LRU-first while over capacity,
        appending to ``events``.  The walk stops at the session just
        seated: it is never evicted, and it is the last one left."""
        resident = self._resident
        resident[session_id] = tokens
        total = self.resident_tokens + tokens - cached
        capacity = self.capacity_tokens
        while total > capacity:
            victim = next(iter(resident))
            if victim == session_id:
                break
            freed = resident.pop(victim)
            total -= freed
            events.append(_new_event(("evict", victim, -1, freed)))
        self.resident_tokens = total


def _resident_gauge(registry, labels, fn):
    """The gauge each cache exports its resident tokens as."""
    return registry.gauge(
        "prefix_cache_resident_tokens",
        "Tokens currently held by the prefix cache", labels=labels, fn=fn)


class PrefixCacheSUT(SutBase):
    """Wraps ``inner`` with a prefix-reuse model for session queries.

    Non-session queries pass straight through; session turns pay a
    prefill delay shaped by the cache before reaching the inner SUT.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        capacity_tokens: int = 32_768,
        registry=None,
        name: Optional[str] = None,
        replica: Optional[int] = None,
    ) -> None:
        super().__init__(name or f"prefix-cache({inner.name})")
        self.inner = inner
        self.inners = (inner,)
        self.model = _LruModel(capacity_tokens)
        #: Fleet replica index this cache belongs to; labels the
        #: ``prefix_cache_*`` metric families so each replica's cache
        #: exports its own series (``None`` = unlabeled standalone cache).
        self.replica = replica
        self.stats = CacheStats()
        #: Ordered audit trail; ``audit_cache_events`` replays it.
        self.events: List[CacheEvent] = []
        #: Turns delayed on the loop for prefill but not yet handed to
        #: the inner SUT; ``flush`` must wait for these to drain.
        self._pending_issues = 0
        self._flush_after_drain = False
        if registry is not None:
            label = {} if replica is None else {"replica": replica}
            export_ledger(registry, lambda: self.stats, **label)
            resident = _resident_gauge(
                registry, tuple(label),
                (lambda: self.model.resident_tokens)
                if replica is None else None)
            if replica is not None:
                resident.labels_fn(
                    lambda: self.model.resident_tokens, replica=replica)

    @property
    def capacity_tokens(self) -> int:
        return self.model.capacity_tokens

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        # A run starts from a cold cache, zeroed stats and an empty
        # trail, however many runs this instance has served before.
        self.model = _LruModel(self.model.capacity_tokens)
        self.stats = CacheStats()
        self.events = []
        self._pending_issues = 0
        self._flush_after_drain = False
        # Completions need no interception: the inner SUT answers the
        # referee directly, chunks and failures included.
        self.inner.start_run(loop, responder)

    def flush(self) -> None:
        """Forward the flush hint once every delayed turn has reached the
        inner SUT.

        Turns sit on the event loop for their prefill delay before they
        are issued inward; flushing the inner SUT while such turns are
        still queued would let the flush overtake them (the inner SUT
        would batch-close before seeing queries that were already,
        logically, issued).  With nothing pending the hint forwards
        immediately - the common non-session path is unchanged.
        """
        if self._pending_issues > 0:
            self._flush_after_drain = True
        else:
            self.inner.flush()

    def _issue_inner(self, query: Query) -> None:
        self._pending_issues -= 1
        self.inner.issue_query(query)
        if self._flush_after_drain and self._pending_issues == 0:
            self._flush_after_drain = False
            self.inner.flush()

    def admit_session(self, session_id: int, tokens: int) -> None:
        """Admit a migrated session's prefix (cross-replica admission).

        Called by the fleet's rescue path just before it re-issues a
        rescued turn here: the prefix the dead replica computed is
        installed as resident, so the rescued turn (and the session's
        later turns, once affinity re-pins) hit instead of recomputing
        a prefill the user already paid for.  The admit is recorded in
        the audit trail; the auditor takes the admitted amount as a
        declared input and verifies its downstream effects (evictions
        now, hits later) like any other event.
        """
        if tokens <= 0:
            return
        events = self.model.admit(session_id, tokens)
        self.events.extend(events)
        self.stats.admissions += 1
        evictions = len(events) - 1
        if evictions:
            self.stats.evictions += evictions

    def issue_query(self, query: Query) -> None:
        turn = query.session
        if turn is None:
            self.inner.issue_query(query)
            return
        events = self.model.access(
            turn.session_id, turn.turn_index, turn.prefix_tokens,
            turn.new_tokens, turn.response_tokens)
        self.events.extend(events)
        access = events[0]
        reused = access.tokens
        missed = turn.prefix_tokens - reused
        self.stats.tokens_reused += reused
        self.stats.tokens_missed += missed
        if access.kind == "hit":
            self.stats.hits += 1
        elif access.kind == "partial":
            self.stats.partial_hits += 1
        else:
            self.stats.misses += 1
        evictions = len(events) - 1
        if evictions:
            self.stats.evictions += evictions
        # Prefill: recompute what missed (plus the fresh prompt), skim
        # what hit.  This is the delay that makes cache effectiveness
        # visible in latency and TTFT percentiles.
        delay = (
            (missed + turn.new_tokens) * _MISS_LATENCY_PER_TOKEN
            + reused * _HIT_LATENCY_PER_TOKEN
        )
        if delay > 0:
            self._pending_issues += 1
            self._loop.schedule_after(
                delay, partial(self._issue_inner, query))
        else:
            self.inner.issue_query(query)


def audit_cache_events(
    events: List[CacheEvent],
    graph: ReplayGraph,
    capacity_tokens: int,
) -> List[str]:
    """Referee-side audit: did the cache claim exactly its entitlement?

    Replays the recorded *access order* (which turns ran, in which
    order) through an independent :class:`_LruModel` parameterized only
    by the replay graph and the declared capacity, and compares the
    regenerated event list - hits, partial reuse amounts, and eviction
    points included - against the recorded one.  Returns a list of
    discrepancy descriptions; an empty list means the trail is clean.
    """
    model = _LruModel(capacity_tokens)
    expected: List[CacheEvent] = []
    for event in events:
        if event.kind == "evict":
            continue  # evictions are regenerated, not replayed
        if event.kind == "admit":
            # Rescue admissions are declared inputs (the rescuing fleet
            # vouches for the amount); the replay applies them so their
            # evictions and the hits they enable stay verifiable.
            expected.extend(model.admit(event.session_id, event.tokens))
            continue
        plan = graph.plan(event.session_id)
        if not 0 <= event.turn_index < plan.turn_count:
            return [
                f"session {event.session_id} has no turn "
                f"{event.turn_index} in the replay graph"
            ]
        turn = plan.turns[event.turn_index]
        expected.extend(model.access(
            event.session_id, event.turn_index, turn.prefix_tokens,
            turn.new_tokens, turn.response_tokens))
    problems = []
    for position, (got, want) in enumerate(zip(events, expected)):
        if got != want:
            problems.append(
                f"event {position}: recorded {got!r}, expected {want!r}")
    if len(events) != len(expected):
        problems.append(
            f"recorded {len(events)} events, expected {len(expected)}")
    return problems


def per_replica_cache_factory(
    capacity_tokens: int = 32_768,
    registry=None,
) -> Callable[[int, SystemUnderTest], PrefixCacheSUT]:
    """A :class:`~repro.fleet.replicaset.ReplicaSet` ``cache_factory``.

    The replica set calls the returned factory once per replica it
    builds, wrapping that replica's backend in its **own**
    :class:`PrefixCacheSUT` - so cache state lives where a real serving
    stack keeps it, on the replica, and routing policy determines which
    cache a session's turns warm.  With a ``registry`` each cache
    exports the ``prefix_cache_*{replica="i"}`` labeled series
    (``docs/observability.md``).
    """
    if registry is not None:
        # The families are registered here, once, and the factory keeps
        # only them: the registry's views read the fleet that keeps it.
        label = ("replica",)
        registry = registry.subset(
            [registry.counter(name, help, labels=label).name
             for _, name, help in exported_counters(CacheStats)]
            + [_resident_gauge(registry, label, None).name])

    def factory(index: int, inner: SystemUnderTest) -> PrefixCacheSUT:
        return PrefixCacheSUT(
            inner,
            capacity_tokens=capacity_tokens,
            registry=registry,
            replica=index,
            name=f"prefix-cache[{index}]({inner.name})",
        )

    return factory


def audit_replica_caches(
    caches: Mapping[int, PrefixCacheSUT],
    graph: ReplayGraph,
) -> Dict[int, List[str]]:
    """Audit every replica's cache trail independently.

    Each replica saw only the turns routed to it, so each trail is
    audited on its own: the recorded access order of *that* replica is
    replayed through a fresh reference model.  Returns
    ``{replica_index: problems}``; all-empty values mean every trail is
    clean.
    """
    return {
        index: audit_cache_events(
            cache.events, graph, cache.capacity_tokens)
        for index, cache in sorted(caches.items())
    }
