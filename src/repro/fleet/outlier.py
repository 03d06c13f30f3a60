"""Gray-failure detection: deterministic outlier ejection for the fleet.

A replica can be sick without being dead: answering every query, keeping
its circuit breaker closed, and still running 10x slower than its peers
(thermal throttling, a noisy neighbor, a dying disk).  Nothing in the
breaker/deadline machinery fires - the stretched latency still beats the
attempt deadline - while the fleet's p99 quietly blows the SLO.  The
:class:`OutlierDetector` is the layer that *can* see this: a
:class:`~repro.core.loadgen.RunService` that ticks on the run's (virtual)
event loop, scores every serving replica's sliding latency window and
windowed failure rate against the fleet median, and quarantines the
outliers.

The state machine per replica (drawn in ``docs/chaos.md``)::

    UP --eject--> EJECTED (quarantine) --after ejection_duration-->
    probation (seeded probe queries) --all pass--> readmitted UP
                                     --any fail--> re-ejected (quarantine)

* **Eject** - a replica whose window p99 exceeds 3x the fleet median
  (or more than half of whose attempts over the last 8 ticks failed),
  with at least ``min_observations`` of
  evidence, is handed to
  :meth:`~repro.fleet.replicaset.ReplicaSet.eject_replica`: its
  in-flight queries are rescued onto survivors (session prefixes warmed
  into the rescue caches) and it stops receiving traffic while its
  backend stays alive.  Ejection is *bounded*: at most
  ``max_ejection_fraction`` of the administratively-alive fleet may be
  in quarantine at once - with everyone degraded there is no healthy
  majority to prefer, and ejecting the whole fleet would be worse than
  the gray failure.
* **Probe** - after ``ejection_duration`` of quarantine the detector
  issues 3 seeded probe queries straight to the ejected
  replica (:meth:`~repro.fleet.replicaset.ReplicaSet.probe_replica`,
  bypassing balancer, breakers, and referee).  All must answer cleanly
  within ``probe_timeout``.
* **Readmit / re-eject** - a clean probation re-admits the replica with
  a fresh breaker and an empty latency window; any failed or late probe
  restarts the quarantine clock.

Everything - tick times, scores, probe payloads (drawn from
``SeedSequence((seed, 0xE7EC7))``) - is a deterministic function of run
state at deterministic virtual times, so the full
:attr:`~OutlierDetector.trace` of :class:`EjectionEvent` entries is
bit-identical across same-seed runs; the chaos acceptance tests assert
exactly that.  With a ``registry`` the ``ejection_*`` metric families
light up (``docs/observability.md``).
"""

from __future__ import annotations

import itertools
import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, NamedTuple, Optional, Set,
                    Tuple)

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, UNIT, check_range
from ..core.events import EventHandle, EventLoop
from ..core.loadgen import Ticker
from ..core.query import Query, QueryFailure, QuerySample
from ..metrics import MetricsRegistry
from .replica import ReplicaHealth
from .replicaset import ReplicaSet

#: Domain-separation tag for the detector's probe RNG stream, disjoint
#: from the balancer (0xF1EE7), session (0x5E55), and chaos (0xC4A05)
#: streams.
_PROBE_TAG = 0xE7EC7

#: Base for probe query ids - above the fault injector's phantom range
#: (2_000_000_000) so probe ids can never collide with anything the
#: LoadGen or the injector fabricates.
_PROBE_ID_BASE = 3_000_000_000

#: Eject when window p99 exceeds this multiple of the fleet median.
_LATENCY_MULTIPLIER = 3.0
#: Eject when the windowed failure rate exceeds this share.
_FAILURE_RATE_THRESHOLD = 0.5
#: Scoring ticks the failure-rate window spans.
_FAILURE_WINDOW_TICKS = 8
#: Probe queries per probation round; all must pass to readmit.
_PROBE_COUNT = 3


@dataclass(frozen=True)
class OutlierPolicy:
    """Tuning for :class:`OutlierDetector`."""

    #: Seconds of run time between scoring ticks.
    period: float = 0.020
    #: Minimum evidence (latency samples / windowed attempts) before a
    #: replica can be judged at all - cold replicas are never ejected.
    min_observations: int = 16
    #: Hard cap: quarantined share of the administratively-alive fleet.
    max_ejection_fraction: float = 0.34
    #: Quarantine time before probation probes are attempted.
    ejection_duration: float = 0.200
    #: Deadline for the whole probation round's probes to answer.
    probe_timeout: float = 0.050

    def __post_init__(self) -> None:
        check_range("period", self.period, POSITIVE)
        check_range("min_observations", self.min_observations, AT_LEAST_ONE)
        check_range("max_ejection_fraction", self.max_ejection_fraction, UNIT)
        check_range("ejection_duration", self.ejection_duration, NON_NEGATIVE)
        check_range("probe_timeout", self.probe_timeout, POSITIVE)


class EjectionEvent(NamedTuple):
    """One detector state transition - the determinism witness.

    ``action`` is ``"eject"`` (``detail`` = p99 / fleet-median ratio, or
    the windowed failure rate for failure-triggered ejections),
    ``"probe"`` (``detail`` = probes issued), ``"readmit"`` (``detail``
    = seconds spent quarantined), or ``"re-eject"`` (``detail`` =
    probes still unanswered when probation failed).
    """

    time: float
    replica: int
    action: str
    detail: float


@dataclass
class _Probation:
    """One in-flight probation round for one ejected replica."""

    started: float
    pending: Set[int] = field(default_factory=set)
    timer: Optional[EventHandle] = None


class _DetectorInstruments:
    """Live ``ejection_*`` metric families."""

    __slots__ = ("ejections", "readmissions", "probes")

    def __init__(self, registry: MetricsRegistry, detector) -> None:
        self.ejections = registry.counter(
            "ejection_ejections_total",
            "Outlier ejections, first-time and probation failures alike",
            labels=("replica",))
        self.readmissions = registry.counter(
            "ejection_readmissions_total",
            "Quarantined replicas re-admitted after a clean probation",
            labels=("replica",))
        self.probes = registry.counter(
            "ejection_probes_total",
            "Probation probe queries issued to quarantined replicas")
        registry.gauge(
            "ejection_active",
            "Replicas currently quarantined by the outlier detector",
            fn=lambda: float(len(detector.quarantined)))


class OutlierDetector(Ticker):
    """Eject gray-failing replicas; probe and readmit them when healed."""

    def __init__(
        self,
        replica_set: ReplicaSet,
        policy: Optional[OutlierPolicy] = None,
        *,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.replica_set = replica_set
        self.policy = policy if policy is not None else OutlierPolicy()
        self.period = self.policy.period
        self.seed = seed
        #: Every state transition, in tick order - bit-identical across
        #: same-seed runs (the chaos acceptance contract).
        self.trace: List[EjectionEvent] = []
        self._m = (
            _DetectorInstruments(registry, self) if registry is not None
            else None
        )
        self._rng = np.random.default_rng(
            np.random.SeedSequence((seed, _PROBE_TAG)))
        self._probe_ids = itertools.count(_PROBE_ID_BASE)
        #: replica index -> virtual time its (latest) quarantine began.
        self._quarantine: Dict[int, float] = {}
        self._probing: Dict[int, _Probation] = {}
        #: probe query id -> replica index it was sent to.
        self._probe_owner: Dict[int, int] = {}
        #: replica index -> (completed+failed, failed) seen last tick.
        self._counters_seen: Dict[int, Tuple[int, int]] = {}
        #: replica index -> per-tick (attempts, failures) deltas.
        self._fail_window: Dict[int, Deque[Tuple[int, int]]] = {}

    @property
    def quarantined(self) -> List[int]:
        """Replica indices currently in quarantine, sorted."""
        return sorted(self._quarantine)

    # -- RunService -------------------------------------------------------------

    def start(self, loop: EventLoop,
              keep_going: Callable[[], bool]) -> None:
        self.trace = []
        self._rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, _PROBE_TAG)))
        self._probe_ids = itertools.count(_PROBE_ID_BASE)
        self._quarantine = {}
        self._probing = {}
        self._probe_owner = {}
        self._counters_seen = {}
        self._fail_window = {}
        super().start(loop, keep_going)

    def stop(self) -> None:
        super().stop()
        for probation in self._probing.values():
            if probation.timer is not None:
                probation.timer.cancel()
                probation.timer = None

    def _tick(self) -> None:
        loop = self.loop
        self.evaluate(loop.now)
        if self.keep_going():
            self._timer = loop.schedule_after(self.period, self._tick)

    # -- scoring ----------------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """One scoring pass at virtual time ``now`` (a tick's body;
        public so benchmarks can meter its cost without the loop)."""
        self._forget_administratively_dead()
        self._advance_probation(now)
        fleet = self.replica_set
        candidates = self._score(fleet)
        if not candidates:
            return
        alive = sum(1 for r in fleet.replicas
                    if r.health is not ReplicaHealth.DOWN)
        allowed = int(self.policy.max_ejection_fraction * alive)
        for score, index in candidates:
            if len(self._quarantine) >= allowed:
                break
            fleet.eject_replica(index)
            self._quarantine[index] = now
            self._fail_window.pop(index, None)
            self._counters_seen.pop(index, None)
            self.trace.append(EjectionEvent(now, index, "eject", score))
            if self._m:
                self._m.ejections.labels(replica=index).inc()

    def _score(self, fleet: ReplicaSet) -> List[Tuple[float, int]]:
        """Rank serving replicas that look like outliers, worst first.

        Returns ``(score, index)`` pairs where the score is the p99 /
        fleet-median ratio (or the windowed failure rate scaled past the
        multiplier, so failure ejections rank with latency ejections).
        """
        serving = fleet.available_replicas
        flagged: List[Tuple[float, int]] = []
        judged = [r for r in serving
                  if r.latency_observations >= self.policy.min_observations]
        if len(judged) >= 2:
            p99s = {r.index: r.p99() for r in judged}
            median = statistics.median(p99s.values())
            if median > 0:
                for r in judged:
                    ratio = p99s[r.index] / median
                    if ratio > _LATENCY_MULTIPLIER:
                        flagged.append((ratio, r.index))
        for r in serving:
            attempts, failures = self._windowed_failures(r)
            if attempts >= self.policy.min_observations:
                rate = failures / attempts
                if (rate > _FAILURE_RATE_THRESHOLD
                        and all(index != r.index for _, index in flagged)):
                    flagged.append((rate, r.index))
        # Worst outlier first; index breaks ties deterministically.
        flagged.sort(key=lambda pair: (-pair[0], pair[1]))
        return flagged

    def _windowed_failures(self, replica) -> Tuple[int, int]:
        """Advance the per-tick failure window; return windowed
        (attempts, failures)."""
        attempts_now = replica.completed + replica.failed
        failed_now = replica.failed
        seen_attempts, seen_failed = self._counters_seen.get(
            replica.index, (0, 0))
        self._counters_seen[replica.index] = (attempts_now, failed_now)
        window = self._fail_window.setdefault(
            replica.index,
            deque(maxlen=_FAILURE_WINDOW_TICKS))
        window.append(
            (attempts_now - seen_attempts, failed_now - seen_failed))
        attempts = failures = 0
        for tick_attempts, tick_failures in window:
            attempts += tick_attempts
            failures += tick_failures
        return attempts, failures

    def _forget_administratively_dead(self) -> None:
        """A quarantined replica that went DOWN (zone kill, scale-down)
        leaves the detector's books - the administrative state wins."""
        fleet = self.replica_set
        for index in list(self._quarantine):
            if fleet.replicas[index].health is ReplicaHealth.EJECTED:
                continue
            self._quarantine.pop(index, None)
            self._cancel_probation(index)

    # -- probation --------------------------------------------------------------

    def _advance_probation(self, now: float) -> None:
        if self.loop is None:
            return
        for index in sorted(self._quarantine):
            if index in self._probing:
                continue
            if now - self._quarantine[index] < self.policy.ejection_duration:
                continue
            self._begin_probation(index, now)

    def _begin_probation(self, index: int, now: float) -> None:
        probation = _Probation(started=now)
        self._probing[index] = probation
        for _ in range(_PROBE_COUNT):
            probe_id = next(self._probe_ids)
            sample_index = int(self._rng.integers(0, 1 << 20))
            query = Query(
                id=probe_id,
                samples=(QuerySample(id=probe_id, index=sample_index),),
                issue_time=now,
            )
            probation.pending.add(probe_id)
            self._probe_owner[probe_id] = index
            self.replica_set.probe_replica(index, query, self._on_probe)
            if self._m:
                self._m.probes.inc()
        probation.timer = self.loop.schedule_after(
            self.policy.probe_timeout,
            lambda: self._probation_expired(index))
        self.trace.append(EjectionEvent(
            now, index, "probe", float(_PROBE_COUNT)))

    def _on_probe(self, query: Query, responses) -> None:
        index = self._probe_owner.pop(query.id, None)
        if index is None:
            return
        probation = self._probing.get(index)
        if probation is None or query.id not in probation.pending:
            return
        now = self.loop.now
        if isinstance(responses, QueryFailure):
            self._fail_probation(index, now)
            return
        probation.pending.discard(query.id)
        if not probation.pending:
            self._readmit(index, now)

    def _probation_expired(self, index: int) -> None:
        probation = self._probing.get(index)
        if probation is None:
            return
        probation.timer = None
        self._fail_probation(index, self.loop.now)

    def _fail_probation(self, index: int, now: float) -> None:
        probation = self._probing.get(index)
        unanswered = len(probation.pending) if probation else 0
        self._cancel_probation(index)
        # Restart the quarantine clock: the replica earned more bench time.
        self._quarantine[index] = now
        self.trace.append(EjectionEvent(
            now, index, "re-eject", float(unanswered)))
        if self._m:
            self._m.ejections.labels(replica=index).inc()

    def _readmit(self, index: int, now: float) -> None:
        quarantined_for = now - self._quarantine.get(index, now)
        self._cancel_probation(index)
        self._quarantine.pop(index, None)
        self.replica_set.readmit_replica(index)
        self.trace.append(EjectionEvent(
            now, index, "readmit", quarantined_for))
        if self._m:
            self._m.readmissions.labels(replica=index).inc()

    def _cancel_probation(self, index: int) -> None:
        probation = self._probing.pop(index, None)
        if probation is None:
            return
        if probation.timer is not None:
            probation.timer.cancel()
            probation.timer = None
        for probe_id in probation.pending:
            self._probe_owner.pop(probe_id, None)
            self.replica_set.cancel_probe(probe_id)
