"""A replicated serving fleet behind one SUT-shaped front door.

``ReplicaSet`` presents the :class:`~repro.core.sut.SystemUnderTest`
protocol to the LoadGen while fanning queries out across N backend
replicas.  Per query it asks the balancing policy
(:mod:`repro.fleet.balancer`) for a preference order over the
administratively-UP replicas, then walks that order until a replica's
:class:`~repro.durability.breaker.CircuitBreaker` admits the query - so
a replica that has been timing out is skipped in O(1) without the
policy having to know why.

Failure handling is reroute-first:

* an attempt that misses its ``attempt_timeout`` deadline, or answers
  with a flawed response set, is recorded against that replica's breaker
  and re-dispatched to a different replica (up to ``max_reroutes``
  extra attempts per query) before the query is failed;
* :meth:`ReplicaSet.kill_replica` (chaos drills, the benchmark's
  replica-kill study) marks the replica DOWN and *immediately* rescues
  its in-flight queries onto survivors - rerouted, not dropped, and the
  rescue does not consume the queries' own reroute budget;
* :meth:`ReplicaSet.eject_replica` quarantines a degraded-but-alive
  replica the same way (state EJECTED instead of DOWN, so the outlier
  detector's probe queries still reach its backend), and every rescue -
  kill, zone outage, or ejection - *warms the survivor's prefix cache*
  with the rescued session's prefix before re-issuing the turn;
* stragglers from superseded attempts are absorbed by the shared
  attempt engine (:class:`~repro.faults.filtering.AttemptSUT`: only the
  replica an attempt was dispatched to may answer it), so the referee
  sees exactly one terminal outcome per query.

Replicas live in **zones** (fault domains): ``zones=`` stripes or maps
each factory index to a zone label, :meth:`ReplicaSet.kill_zone` /
:meth:`ReplicaSet.restore_zone` fail and recover a whole domain at
once (every target is marked dead *before* any rescue dispatch, so a
rescued query cannot land on a replica about to die in the same
outage).  See ``docs/chaos.md`` for the correlated-failure vocabulary
built on these primitives.

The set also exposes the grow/shrink primitives the
:class:`~repro.fleet.autoscaler.Autoscaler` drives: ``scale_up`` revives
a draining or parked replica (or builds a fresh one via the factory) and
``scale_down`` drains the highest-indexed UP replica - no new traffic,
in-flight queries finish, then it parks DOWN.

Two feedback loops close through here:

* **routing reality** - after every clean completion the policy's
  :meth:`~repro.fleet.balancer.BalancerPolicy.notify_served` hook is
  called with the replica that *actually* answered (and
  ``notify_failed`` when nobody did), so stateful policies like session
  affinity pin to where the state really landed, not to their first
  preference;
* **per-replica state** - an optional ``cache_factory`` wraps every
  factory-built replica in its own state wrapper (canonically a
  :class:`~repro.sessions.cache.PrefixCacheSUT` via
  :func:`repro.sessions.cache.per_replica_cache_factory`), making the
  payoff of affinity measurable: each replica's cache trail is audited
  independently and exported as ``prefix_cache_*{replica=...}`` series.

Everything runs on the run's event loop with seeded policy RNGs, so a
(seed, policy, fault plan) triple reproduces the identical routing
trace.  With a ``registry`` the layer emits the ``fleet_*`` and ``lb_*``
metric families cataloged in ``docs/observability.md``; the design
rationale lives in ``docs/fleet.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_range
from ..core.events import EventLoop
from ..core.query import Query, StreamChunk
from ..core.sut import Responder, SystemUnderTest
from ..durability.breaker import BreakerPolicy
from ..faults.filtering import Attempt, AttemptSUT
from ..metrics import MetricsRegistry, export_ledger, exported
from .balancer import BalancerPolicy, make_policy
from .replica import DEFAULT_LATENCY_WINDOW, Replica, ReplicaHealth

#: Domain-separation tag for the balancing policy's RNG stream (mixed
#: with the run seed), so routing draws can never collide with the fault
#: injector's or backoff-jitter's streams.
_BALANCER_TAG = 0xF1EE7


@dataclass
class FleetStats:
    """What the replica set did during one run."""

    routed_queries: int = 0
    fallbacks: int = exported(
        "lb_fallbacks_total",
        "Dispatches that skipped breaker-rejecting higher choices")
    reroutes: int = exported(
        "fleet_reroutes_total",
        "Attempts re-dispatched to a different replica")
    shed_queries: int = exported(
        "fleet_queries_shed_total",
        "Queries failed because no replica could take them")
    deadline_failures: int = 0
    flawed_attempts: int = 0
    stragglers_absorbed: int = exported(
        "fleet_stragglers_absorbed_total",
        "Late completions from superseded attempts, absorbed")
    kills: int = exported(
        "fleet_replica_kills_total",
        "Replicas administratively killed mid-run")
    zone_kills: int = 0
    ejections: int = 0
    readmissions: int = 0
    rescued_queries: int = 0
    cache_warms: int = exported(
        "fleet_cache_warms_total",
        "Rescued session prefixes admitted into survivor caches")
    drained_replicas: int = exported(
        "fleet_replicas_drained_total",
        "Scale-down drains that completed (replica parked DOWN)")

    def summary(self) -> str:
        return (
            f"routed={self.routed_queries} fallbacks={self.fallbacks} "
            f"reroutes={self.reroutes} shed={self.shed_queries} "
            f"deadlines={self.deadline_failures} kills={self.kills} "
            f"ejections={self.ejections} readmissions={self.readmissions} "
            f"rescued={self.rescued_queries} warms={self.cache_warms} "
            f"stragglers={self.stragglers_absorbed}"
        )


class _FleetInstruments:
    """What one replica set writes to the registry: the live fleet
    gauges and ``lb_routed_total``, which is labelled by the replica a
    dispatch picked.  Everything else the fleet counts is a
    :class:`FleetStats` field exported as it stands."""

    __slots__ = ("routed", "routed_to")

    def __init__(self, registry: MetricsRegistry, fleet) -> None:
        export_ledger(registry, lambda: fleet.stats)
        registry.gauge(
            "fleet_replicas",
            "Replicas that are administratively alive (not DOWN)",
            fn=lambda: float(sum(
                1 for r in fleet.replicas
                if r.health is not ReplicaHealth.DOWN)))
        registry.gauge(
            "fleet_replicas_available",
            "Replicas eligible for new traffic (UP)",
            fn=lambda: float(len(fleet.available_replicas)))
        registry.gauge(
            "fleet_replicas_ejected",
            "Replicas quarantined by outlier ejection",
            fn=lambda: float(sum(
                1 for r in fleet.replicas
                if r.health is ReplicaHealth.EJECTED)))
        registry.gauge(
            "fleet_outstanding_queries",
            "In-flight queries summed across all replicas",
            fn=lambda: float(fleet.total_outstanding))
        self.routed = registry.counter(
            "lb_routed_total",
            "Queries dispatched, by destination replica",
            labels=("replica",))
        #: replica index -> its ``lb_routed_total`` child, resolved on
        #: the first dispatch to that replica (the series appears in
        #: snapshots from then on, not from the replica's creation).
        self.routed_to: Dict[int, object] = {}


class _Routed(Attempt):
    """Per-query in-flight state.  ``sources`` is ``(index,)`` of the
    replica holding the current attempt; ``tries`` counts the reroutes
    charged to the query's own budget."""

    sources = ()
    probe = False
    attempt_started = 0.0


class ReplicaSet(AttemptSUT):
    """N replicas behind a pluggable, breaker-aware load balancer."""

    def __init__(
        self,
        replica_factory: Callable[[int], SystemUnderTest],
        *,
        initial_replicas: int = 2,
        policy: Optional[object] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        attempt_timeout: float = 0.100,
        max_reroutes: int = 2,
        max_replicas: int = 8,
        zones: Union[int, Sequence[str], Callable[[int], str]] = 1,
        latency_window: int = DEFAULT_LATENCY_WINDOW,
        seed: int = 0,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        cache_factory: Optional[
            Callable[[int, SystemUnderTest], SystemUnderTest]] = None,
    ) -> None:
        super().__init__(name or f"fleet[{initial_replicas}]")
        if not 1 <= initial_replicas <= max_replicas:
            raise ValueError(
                "initial_replicas must lie in [1, max_replicas], got "
                f"{initial_replicas} outside [1, {max_replicas}]")
        check_range("attempt_timeout", attempt_timeout, POSITIVE)
        check_range("max_reroutes", max_reroutes, NON_NEGATIVE)
        self._zone_fn = self._resolve_zones(zones)
        self.replica_factory = replica_factory
        self.initial_replicas = initial_replicas
        self.policy: BalancerPolicy = make_policy(policy)
        self.breaker_policy = breaker_policy
        self.attempt_timeout = attempt_timeout
        self.max_reroutes = max_reroutes
        self.max_replicas = max_replicas
        self.latency_window = latency_window
        self.seed = seed
        #: Per-replica state wrapper builder (``(index, inner) -> sut``);
        #: the canonical use is
        #: :func:`repro.sessions.cache.per_replica_cache_factory`, which
        #: gives every replica its **own** auditable
        #: :class:`~repro.sessions.cache.PrefixCacheSUT` - cache state
        #: lives on the replica, so the balancing policy's routing
        #: decisions are what make (or break) prefix locality.
        self.cache_factory = cache_factory
        self.stats = FleetStats()
        self.replicas: List[Replica] = []
        #: query id -> callback for in-flight health probes
        #: (:meth:`probe_replica`); probes bypass the balancer, the
        #: breakers, and the referee's per-query accounting entirely.
        self._probes: Dict[int, Callable] = {}
        #: replica index -> the cache wrapper built by ``cache_factory``
        #: (empty when no factory was given).  Survives kills and
        #: drains: a revived replica keeps its warm cache.
        self.caches: Dict[int, SystemUnderTest] = {}
        #: Indices parked DOWN by a completed scale-down drain, in drain
        #: order - scale-up revives the most recently parked first.
        self._parked: List[int] = []
        self._m = (
            _FleetInstruments(registry, self) if registry is not None
            else None
        )

    @staticmethod
    def _resolve_zones(
        zones: Union[int, Sequence[str], Callable[[int], str]],
    ) -> Callable[[int], str]:
        """Normalize the ``zones`` argument to ``index -> zone label``.

        * an int N stripes replicas round-robin over ``z0..z{N-1}``;
        * a sequence of labels stripes over those labels;
        * a callable is used as-is.
        """
        if callable(zones):
            return zones
        if isinstance(zones, int):
            check_range("zones", zones, AT_LEAST_ONE)
            return lambda index: f"z{index % zones}"
        labels = tuple(zones)
        if not labels:
            raise ValueError("zones sequence must not be empty")
        return lambda index: labels[index % len(labels)]

    # -- lifecycle --------------------------------------------------------------

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = FleetStats()
        self.replicas = []
        self.caches = {}
        self._parked = []
        self._probes = {}
        self.policy.start_run(np.random.default_rng(
            np.random.SeedSequence((self.seed, _BALANCER_TAG))))
        for _ in range(self.initial_replicas):
            self._add_replica()

    def _add_replica(self) -> Replica:
        index = len(self.replicas)
        sut = self.replica_factory(index)
        if self.cache_factory is not None:
            sut = self.cache_factory(index, sut)
            self.caches[index] = sut
        replica = Replica(
            index, sut,
            zone=self._zone_fn(index),
            breaker_policy=self.breaker_policy,
            clock=self._loop.clock.now,
            latency_window=self.latency_window,
        )
        self.replicas.append(replica)
        sut.start_run(self.loop, partial(self._from_replica, index))
        return replica

    def end_run(self) -> None:
        # Pending health probes hold their prober's callback, and the
        # prober holds this fleet.
        self._probes = {}
        super().end_run()

    @property
    def inners(self) -> List[SystemUnderTest]:
        return [replica.sut for replica in self.replicas]

    def flush(self) -> None:
        self._drain()
        for replica in self.replicas:
            if replica.health is not ReplicaHealth.DOWN:
                replica.sut.flush()

    # -- fleet views ------------------------------------------------------------

    @property
    def available_replicas(self) -> List[Replica]:
        """Replicas eligible for new traffic (UP), in index order."""
        return [r for r in self.replicas if r.available]

    @property
    def total_outstanding(self) -> int:
        return sum(r.outstanding for r in self.replicas)

    # -- routing ----------------------------------------------------------------

    def issue_query(self, query: Query) -> None:
        state = self._inflight[query.id] = _Routed(
            query, self._loop.clock.now())
        if not self._dispatch(state, exclude=None):
            self._shed(state, "no replica available: every replica is "
                              "down, draining, or shedding load")

    def _dispatch(self, state: _Routed, exclude: Optional[int],
                  rescue: bool = False) -> bool:
        """Hand the query's next attempt to the best admitting replica.

        Walks the policy's ranking and takes the first replica whose
        breaker admits; returns False when nobody will (all rejecting,
        or no candidate besides ``exclude``).  A ``rescue`` dispatch
        (kill, zone outage, ejection) additionally warms the chosen
        survivor's prefix cache with the rescued session's prefix and
        tells the policy where the session migrated.

        One pass per decision: the candidates are the UP replicas minus
        ``exclude``, in index order, and ``rank_for`` is looked up on
        the policy per call (instrumentation wraps it per instance).
        """
        up = ReplicaHealth.UP
        candidates = [
            r for r in self.replicas if r.health is up and r.index != exclude
        ]
        ranking = self.policy.rank_for(state.query, candidates)
        loop, m = self._loop, self._m
        for position, replica in enumerate(ranking):
            verdict = replica.breaker.admit()
            if verdict == "reject":
                continue
            if position > 0:
                self.stats.fallbacks += 1
            state.probe = verdict == "probe"
            state.attempt_started = loop.clock.now()
            replica.outstanding += 1
            replica.issued += 1
            self.stats.routed_queries += 1
            if m:
                try:
                    m.routed_to[replica.index].inc()
                except KeyError:
                    routed = m.routed_to[replica.index] = m.routed.labels(
                        replica=replica.index)
                    routed.inc()
            # Arm before issuing inward: the deadline's event must
            # precede whatever the replica schedules for the same instant.
            self._arm(state, self.attempt_timeout)
            if rescue:
                self._warm_rescued_session(state.query, replica.index)
                self.policy.notify_rescued(state.query, replica.index)
            self._restart(state, (replica.index,))
            replica.sut.issue_query(state.query)
            return True
        return False

    def _warm_rescued_session(self, query: Query, index: int) -> None:
        """Cross-replica cache admission: a rescued session turn already
        *has* its prefix (the dead replica computed it), so the rescue
        replica's cache is told to admit it rather than re-discover it
        as a miss."""
        turn = getattr(query, "session", None)
        if turn is None or turn.prefix_tokens <= 0:
            return
        admit = getattr(self.caches.get(index), "admit_session", None)
        if admit is None:
            return
        admit(turn.session_id, turn.prefix_tokens)
        self.stats.cache_warms += 1

    def _shed(self, state: _Routed, reason: str) -> None:
        self._resolve(state)
        self.stats.shed_queries += 1
        # No replica served it; stateful policies (session affinity)
        # drop their routing state - a failed turn aborts its session.
        self.policy.notify_failed(state.query)
        self.fail(state.query, reason)

    def _reroute_or_fail(self, state: _Routed, exclude: int,
                         reason: str) -> None:
        """After a lost attempt on replica ``exclude``: try elsewhere
        within the query's reroute budget, else fail it."""
        if state.tries < self.max_reroutes:
            state.tries += 1
            self.stats.reroutes += 1
            if self._dispatch(state, exclude=exclude):
                return
        self._shed(state, reason)

    # -- attempt outcomes -------------------------------------------------------

    def _advanced(self, state: _Routed) -> float:
        # Streaming progress pushes the attempt deadline back: the
        # replica is alive, so the timeout meters inter-chunk gaps.
        return self.attempt_timeout

    def _expired(self, state: _Routed) -> None:
        index, = state.sources
        replica = self.replicas[index]
        self._settle_attempt(replica, failed=True)
        replica.breaker.record_failure(probe=state.probe)
        self.stats.deadline_failures += 1
        self._reroute_or_fail(
            state, exclude=index,
            reason=(f"no response from replica {index} within "
                    f"{self.attempt_timeout:g}s"))

    def _from_replica(self, index: int, query: Query, arrival) -> None:
        if query.id in self._probes:
            if not isinstance(arrival, StreamChunk):
                # Probes wait for their terminal outcome.
                self._probes.pop(query.id)(query, arrival)
            return
        self._deliver(index, query.id, arrival)

    def _absorbed(self, chunk: bool) -> None:
        # Duplicate, post-resolution straggler, or an arrival from a
        # replica the query was already rerouted away from (its books
        # were settled at reroute time).
        self.stats.stragglers_absorbed += 1

    def _flawed(self, state: _Routed, source: int, reason: str,
                failure) -> None:
        replica = self.replicas[source]
        self._settle_attempt(replica, failed=True)
        replica.breaker.record_failure(probe=state.probe)
        self.stats.flawed_attempts += 1
        self._reroute_or_fail(state, exclude=source, reason=reason)

    def _clean(self, state: _Routed, source: int, responses) -> None:
        self._resolve(state)
        replica = self.replicas[source]
        self._settle_attempt(replica, failed=False)
        replica.breaker.record_success(probe=state.probe)
        replica.observe_latency(
            self._loop.clock.now() - state.attempt_started)
        # Close the routing feedback loop: the policy learns which
        # replica *actually* served the query - through breaker
        # rejections, reroutes, and kill rescues - so its state (e.g.
        # session pins) tracks where the prefix really landed.
        self.policy.notify_served(state.query, source)
        self.complete(state.query, responses)

    def _settle_attempt(self, replica: Replica, *, failed: bool) -> None:
        replica.outstanding -= 1
        if failed:
            replica.failed += 1
        else:
            replica.completed += 1
        self._maybe_drained(replica)

    # -- health and scaling -----------------------------------------------------

    def _rescue_inflight(self, index: int, *, cause: str) -> int:
        """Re-dispatch every in-flight query of replica ``index`` onto
        survivors - rerouted, not dropped - without consuming the
        queries' own reroute budgets (the failure is not the query's
        fault).  Returns the number of rescued queries."""
        replica = self.replicas[index]
        rescued = 0
        for state in list(self._inflight.values()):
            if state.sources != (index,):
                continue
            replica.outstanding -= 1
            self.stats.reroutes += 1
            if self._dispatch(state, exclude=index, rescue=True):
                rescued += 1
            else:
                self._shed(state, f"replica {index} {cause} and no "
                                  "surviving replica would admit the query")
        self.stats.rescued_queries += rescued
        return rescued

    def kill_replica(self, index: int) -> int:
        """Administratively kill replica ``index`` (chaos drill).

        Its in-flight queries are rescued onto surviving replicas
        immediately - rerouted, not dropped - and the rescue does not
        consume their own reroute budgets (the kill is not the query's
        fault).  Returns the number of rescued queries.
        """
        replica = self.replicas[index]
        if replica.health is ReplicaHealth.DOWN:
            return 0
        replica.health = ReplicaHealth.DOWN
        self.stats.kills += 1
        return self._rescue_inflight(index, cause="killed")

    def kill_zone(self, zone: str) -> int:
        """Kill every alive replica in ``zone`` at once (zone outage).

        All targets are marked DOWN *before* any rescue dispatch, so a
        rescued query can never land on a replica that is about to die
        in the same outage.  Returns the total rescued queries.
        """
        targets = [r for r in self.replicas
                   if r.zone == zone and r.health is not ReplicaHealth.DOWN]
        if not targets:
            return 0
        for replica in targets:
            replica.health = ReplicaHealth.DOWN
            self.stats.kills += 1
        self.stats.zone_kills += 1
        rescued = 0
        for replica in targets:
            rescued += self._rescue_inflight(
                replica.index, cause=f"killed with zone {zone!r}")
        return rescued

    def eject_replica(self, index: int) -> int:
        """Quarantine an UP replica (outlier ejection, gray failure).

        Like :meth:`kill_replica` - in-flight queries are rescued onto
        survivors at once - except the replica lands EJECTED, not DOWN:
        its backend stays reachable for the outlier detector's probe
        queries (:meth:`probe_replica`) so probation can re-admit it.
        Returns the number of rescued queries; 0 if it was not UP.
        """
        replica = self.replicas[index]
        if replica.health is not ReplicaHealth.UP:
            return 0
        replica.health = ReplicaHealth.EJECTED
        self.stats.ejections += 1
        return self._rescue_inflight(index, cause="ejected")

    def readmit_replica(self, index: int) -> None:
        """Return an EJECTED replica to service with a clean slate.

        Fresh breaker and an empty latency window: the observations
        that got it ejected describe the degradation, not the replica
        that probation just vouched for.
        """
        replica = self.replicas[index]
        if replica.health is not ReplicaHealth.EJECTED:
            return
        replica.health = ReplicaHealth.UP
        replica.reset_breaker(self.breaker_policy, self._loop.clock.now)
        replica.clear_window()
        self.stats.readmissions += 1

    def probe_replica(self, index: int, query: Query,
                      on_result: Callable[[Query, object], None]) -> None:
        """Issue a health probe straight to replica ``index``.

        Probes bypass the balancer, the breakers, and the referee's
        per-query accounting: the terminal outcome (completion or
        failure) is handed to ``on_result`` and nothing else in the
        fleet notices.  Callers own timeout handling - a probe that
        never answers stays pending until :meth:`cancel_probe`.
        """
        self._probes[query.id] = on_result
        self.replicas[index].sut.issue_query(query)

    def cancel_probe(self, query_id: int) -> None:
        """Forget a pending probe (its answer, if any, is dropped)."""
        self._probes.pop(query_id, None)

    def restore_replica(self, index: int) -> None:
        """Bring a DOWN replica back UP with a fresh breaker."""
        replica = self.replicas[index]
        replica.health = ReplicaHealth.UP
        replica.reset_breaker(self.breaker_policy, self._loop.clock.now)
        replica.clear_window()
        if index in self._parked:
            self._parked.remove(index)

    def restore_zone(self, zone: str) -> int:
        """Bring a zone's DOWN replicas back UP (outage recovery).

        Replicas parked by a completed scale-down drain stay parked -
        reviving those is the autoscaler's call, not the recovery's.
        Returns the number of replicas restored.
        """
        restored = 0
        for replica in self.replicas:
            if (replica.zone == zone
                    and replica.health is ReplicaHealth.DOWN
                    and replica.index not in self._parked):
                self.restore_replica(replica.index)
                restored += 1
        return restored

    def scale_up(self) -> bool:
        """Add one serving replica; False at the ``max_replicas`` cap.

        Preference order: un-drain a DRAINING replica (cheapest - it is
        still warm), revive the most recently parked one, else build a
        fresh replica through the factory.  Among candidates at the
        same tier the one from the zone with the fewest available
        replicas wins, so recovery refills the hollowed-out domain
        first (ties keep the pre-zone order: highest index).
        """
        if len(self.available_replicas) >= self.max_replicas:
            return False
        zone_avail = Counter(r.zone for r in self.available_replicas)
        draining = [r for r in self.replicas
                    if r.health is ReplicaHealth.DRAINING]
        if draining:
            victim = min(reversed(draining),
                         key=lambda r: zone_avail[r.zone])
            victim.health = ReplicaHealth.UP
            return True
        if self._parked:
            index = min(reversed(self._parked),
                        key=lambda i: zone_avail[self.replicas[i].zone])
            self.restore_replica(index)
            return True
        self._add_replica()
        return True

    def scale_down(self) -> bool:
        """Drain the highest-indexed UP replica; False at the last one.

        The replica stops receiving new traffic at once; it parks DOWN
        when its last in-flight query resolves.
        """
        available = self.available_replicas
        if len(available) <= 1:
            return False
        victim = available[-1]
        victim.health = ReplicaHealth.DRAINING
        self._maybe_drained(victim)
        return True

    def _maybe_drained(self, replica: Replica) -> None:
        if (replica.health is ReplicaHealth.DRAINING
                and replica.outstanding == 0):
            replica.health = ReplicaHealth.DOWN
            self._parked.append(replica.index)
            self.stats.drained_replicas += 1
