"""Pluggable, seed-deterministic load-balancing policies.

A policy answers one question per query: *in what order should the
available replicas be tried?*  The :class:`~repro.fleet.replicaset.ReplicaSet`
walks the returned ranking and hands the query to the first replica
whose circuit breaker admits it, so a policy never needs to reason about
breaker state - it only expresses preference.

All three stock policies are deterministic functions of (their own
state, the replicas' counters, the seeded RNG handed to
:meth:`BalancerPolicy.start_run`), so two same-seed runs route every
query identically - the fleet inherits the repeatability contract of the
rest of the harness.

* :class:`RoundRobinPolicy` - rotate through the available replicas;
  oblivious to load, optimal when replicas are identical.
* :class:`LeastOutstandingPolicy` - prefer the replica with the fewest
  in-flight queries (ties broken by index); the classic join-the-
  shortest-queue heuristic.
* :class:`WeightedP99Policy` - draw the first choice with probability
  inversely proportional to each replica's sliding-window p99 latency,
  so a browning-out replica organically sheds share without being
  declared unhealthy.
* :class:`SessionAffinityPolicy` - pin each conversation's turns to the
  replica that served its previous turn (the one holding the shared
  prefix), falling back to least-outstanding; see ``docs/sessions.md``.
* :class:`ZoneSpreadPolicy` - interleave fault domains in every
  ranking, so a query's fallback choices sit in *different* zones than
  its primary and a zone-wide brownout costs at most one wasted
  attempt per query.
* :class:`ZoneLocalPolicy` - prefer a configured local zone (data
  locality), spilling to the other zones - interleaved - only when the
  local zone cannot take the query.

See ``docs/fleet.md`` for guidance on choosing between them and
``docs/chaos.md`` for the zone vocabulary.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from .replica import Replica

#: Floor added to p99 estimates before inversion so an all-zero window
#: (cold start) weighs every replica equally instead of dividing by zero.
_P99_EPSILON = 1e-6

#: Least-outstanding order, ties by index: a C key, so ranking a
#: candidate set costs one sort and no Python frame per replica.
_BY_LOAD = attrgetter("outstanding", "index")
#: C accessors for the zone policies' per-decision passes.
_ZONE = attrgetter("zone")
_DEALT_REPLICA = itemgetter(1)


class BalancerPolicy:
    """Base class: rank the available replicas for one query."""

    #: Registry name (``make_policy``) and metric label value.
    name = "base"

    def start_run(self, rng: np.random.Generator) -> None:
        """Reset per-run state.  ``rng`` is the policy's only entropy
        source; it is seeded from the run seed, so consuming draws in a
        deterministic order keeps routing replayable."""
        self._rng = rng

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        """Order ``candidates`` (all administratively UP) by preference
        for ``query`` (``None`` when there is none in hand).

        The ReplicaSet calls this once per routing decision; it must
        return a permutation of ``candidates`` and must not mutate
        them.  Load-oblivious policies ignore ``query``; content-aware
        ones (session affinity) read it.  Ranking must be
        **read-only**: the ranking expresses preference, and which
        replica *actually* serves the query (breaker rejections and
        reroutes included) arrives later through :meth:`notify_served`.
        """
        raise NotImplementedError

    def notify_served(self, query, replica_index: int) -> None:
        """Feedback hook: ``replica_index`` completed ``query`` cleanly.

        The ReplicaSet reports the replica that *actually* served each
        query - after any breaker rejections, deadline reroutes, or
        kill rescues - so stateful policies track reality instead of
        their own first preference.  Default: no state, no-op.
        """

    def notify_failed(self, query) -> None:
        """Feedback hook: ``query`` was failed (shed or budget-exhausted).

        No replica served it; stateful policies drop whatever routing
        state they held for it.  Default: no-op.
        """

    def notify_rescued(self, query, replica_index: int) -> None:
        """Feedback hook: ``query`` was rescued onto ``replica_index``.

        Its previous replica was killed or ejected mid-flight and the
        ReplicaSet re-dispatched the query (after warming the rescue
        replica's cache with the session's prefix).  Stateful policies
        migrate their routing state *now*, before the rescued attempt
        completes - a sibling turn issued during the outage must
        already prefer the rescue replica.  Default: no-op.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinPolicy(BalancerPolicy):
    """Rotate through the available replicas, one step per decision."""

    name = "round-robin"

    def start_run(self, rng: np.random.Generator) -> None:
        super().start_run(rng)
        self._cursor = 0

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        if not candidates:
            return []
        # The cursor advances per decision, not per replica index, so the
        # rotation stays fair as the autoscaler grows/shrinks the set.
        offset = self._cursor % len(candidates)
        self._cursor += 1
        return list(candidates[offset:]) + list(candidates[:offset])


class LeastOutstandingPolicy(BalancerPolicy):
    """Join the shortest queue: fewest in-flight queries first."""

    name = "least-outstanding"

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        return sorted(candidates, key=_BY_LOAD)


class WeightedP99Policy(BalancerPolicy):
    """First choice drawn inversely proportional to observed p99.

    Only the *primary* choice is randomized; the fallback order (tried
    when the primary's breaker rejects) is fastest-first, so a rejected
    draw degrades to the sensible deterministic ranking rather than a
    second random walk.
    """

    name = "weighted-p99"

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        if len(candidates) <= 1:
            return list(candidates)
        # One p99 (one window sort) per candidate, for both uses.
        p99s = [r.p99() for r in candidates]
        weights = 1.0 / (np.array(p99s) + _P99_EPSILON)
        primary = int(self._rng.choice(
            len(candidates), p=weights / weights.sum()))
        rest = sorted(
            (i for i in range(len(candidates)) if i != primary),
            key=lambda i: (p99s[i], candidates[i].index))
        return [candidates[i] for i in (primary, *rest)]


class SessionAffinityPolicy(BalancerPolicy):
    """Pin each conversation to one replica; spill only when it is gone.

    Session turns share a growing prefix, so the replica that served
    turn N holds the KV state turn N+1 wants - with per-replica
    :class:`~repro.sessions.cache.PrefixCacheSUT` caches on the fleet
    the pin is exactly what keeps the session's prefix hot (see
    ``docs/sessions.md``).  The first turn of a session - and every
    non-session query - routes least-outstanding; later turns prefer
    the pinned replica, falling back to least-outstanding when the pin
    left the candidate set.

    Pins follow **reality**, not preference: :meth:`rank_for` is
    read-only, and the pin is written by :meth:`notify_served` with the
    replica that actually completed the turn - so a dispatch the pinned
    replica's breaker rejected, or a turn rerouted after a deadline,
    re-pins to the replica that really holds the new prefix.  A pin is
    released the moment its session ends: the final turn's completion
    (the conversation is over) or any failed turn (the session aborts),
    so the pin table cannot grow without bound across millions of
    users.
    """

    name = "session-affinity"

    def start_run(self, rng: np.random.Generator) -> None:
        super().start_run(rng)
        #: session_id -> index of the replica that last *served* it.
        self._pins: Dict[int, int] = {}

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        ranked = sorted(candidates, key=_BY_LOAD)
        turn = getattr(query, "session", None)
        if turn is None:
            return ranked
        pinned_index = self._pins.get(turn.session_id)
        if pinned_index is not None:
            for position, replica in enumerate(ranked):
                if replica.index == pinned_index:
                    ranked.insert(0, ranked.pop(position))
                    break
        return ranked

    def notify_served(self, query, replica_index: int) -> None:
        turn = getattr(query, "session", None)
        if turn is None:
            return
        if turn.turn_index >= turn.turn_count - 1:
            # Final turn answered: the conversation is over, release the
            # pin so the table stays bounded by *live* sessions.
            self._pins.pop(turn.session_id, None)
        else:
            self._pins[turn.session_id] = replica_index

    def notify_failed(self, query) -> None:
        turn = getattr(query, "session", None)
        if turn is None:
            return
        # A lost turn aborts its session (the driver never issues the
        # next one); keeping the pin would leak it forever.
        self._pins.pop(turn.session_id, None)

    def notify_rescued(self, query, replica_index: int) -> None:
        turn = getattr(query, "session", None)
        if turn is None:
            return
        # The pinned replica died or was ejected and this turn migrated
        # (with its prefix - the rescue warmed the new replica's cache).
        # Re-pin immediately: a later turn issued while the old replica
        # is still quarantined must rank the rescue replica first, not
        # fall back to least-outstanding and strand the warm prefix.
        self._pins[turn.session_id] = replica_index


def _interleave_zones(candidates: Sequence[Replica],
                      zone_order: Sequence[str]) -> List[Replica]:
    """Round-robin across zones (in ``zone_order``), least-outstanding
    within each zone - so consecutive ranking positions sit in
    different fault domains wherever possible.

    The ordering contract: position ``k`` of zone ``z``'s queue (its
    candidates by ``(outstanding, index)``) ranks before position
    ``k + 1`` of every zone, and within one round zones keep
    ``zone_order``; a zone that runs out is skipped.  Candidates whose
    zone is not in ``zone_order`` are left out.

    One deal: walking the candidates least-outstanding first, each is
    given the slot ``round * len(zone_order) + zone position`` (its
    zone's next free slot), and one sort by slot is the ranking.
    """
    width = len(zone_order)
    next_slot = dict(zip(zone_order, range(width)))
    dealt = sorted(candidates, key=_BY_LOAD)
    placed = 0
    # Overwrites only positions already walked: ``placed`` never
    # passes the walk.
    for replica in dealt:
        zone = replica.zone
        if zone in next_slot:
            slot = next_slot[zone]
            next_slot[zone] = slot + width
            dealt[placed] = (slot, replica)
            placed += 1
    del dealt[placed:]
    dealt.sort()  # slots are distinct, so replicas are never compared
    return list(map(_DEALT_REPLICA, dealt))


class ZoneSpreadPolicy(BalancerPolicy):
    """Interleave fault domains: no two adjacent choices share a zone.

    The primary choice rotates across zones per decision (then
    least-outstanding within the zone), and the *fallback* order - what
    the ReplicaSet walks when a breaker rejects, and what a rescued or
    rerouted query tries next - alternates zones.  Under a zone-wide
    brownout that is the property that matters: a query that wastes an
    attempt on the sick zone retries in a healthy one instead of
    burning its whole reroute budget in the same failure domain.
    """

    name = "zone-spread"

    def start_run(self, rng: np.random.Generator) -> None:
        super().start_run(rng)
        self._cursor = 0

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        if not candidates:
            return []
        zones = sorted(set(map(_ZONE, candidates)))  # sorted: deterministic
        offset = self._cursor % len(zones)
        self._cursor += 1
        return _interleave_zones(candidates, zones[offset:] + zones[:offset])


class ZoneLocalPolicy(BalancerPolicy):
    """Prefer one local zone; spill to remote zones only under pressure.

    Models a topology where the caller is co-located with one fault
    domain (no cross-zone hop): local replicas rank first
    (least-outstanding), remote zones follow interleaved.  The local
    zone is the first zone present, in sorted order.
    """

    name = "zone-local"

    def rank_for(self, query, candidates: Sequence[Replica]) -> List[Replica]:
        if not candidates:
            return []
        zones = sorted(set(map(_ZONE, candidates)))  # sorted: deterministic
        local = zones.pop(0)
        return (_interleave_zones(candidates, (local,))
                + _interleave_zones(candidates, zones))


_POLICIES: Dict[str, Type[BalancerPolicy]] = {
    cls.name: cls
    for cls in (RoundRobinPolicy, LeastOutstandingPolicy, WeightedP99Policy,
                SessionAffinityPolicy, ZoneSpreadPolicy, ZoneLocalPolicy)
}

#: The registry names, for CLI choices and error messages.
POLICY_NAMES = tuple(sorted(_POLICIES))


def make_policy(policy: Optional[object]) -> BalancerPolicy:
    """Resolve a policy argument: name, instance, or ``None`` (default).

    ``None`` maps to round-robin - the only policy with zero modeling
    assumptions about the replicas.
    """
    if policy is None:
        return RoundRobinPolicy()
    if isinstance(policy, BalancerPolicy):
        return policy
    if isinstance(policy, str):
        cls = _POLICIES.get(policy)
        if cls is None:
            raise ValueError(
                f"unknown balancer policy {policy!r}; "
                f"known: {', '.join(POLICY_NAMES)}")
        return cls()
    raise TypeError(
        f"policy must be a name, a BalancerPolicy, or None; got {policy!r}")
