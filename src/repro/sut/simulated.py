"""Event-driven simulated SUT (queueing, batching, padding waste).

This is the submitter-side counterpart of the LoadGen for performance
experiments: incoming queries are split into chunks of at most
``max_batch`` samples, queued, and served by the device's engines.

Two mechanisms make the scenario differences *emerge* rather than being
scripted:

* **Dynamic batching** - an idle engine merges queued chunks into one
  dispatch.  Under offline's single huge query the dispatches are always
  full; under server's Poisson trickle they are as large as the queue
  happens to be, bounded by the latency the QoS constraint can afford
  (optionally helped by a ``batch_window`` hold-off).

* **Cost variability and padding** - each sample carries a cost
  multiplier (drawn from a lognormal keyed to the workload's
  ``variability``; zero for fixed-shape CNN inputs, substantial for
  NMT's variable sentence lengths).  A batched dispatch pays the
  *maximum* multiplier in the batch for every sample - padding waste.
  The SUT may reorder work (explicitly allowed by the rules), so
  dispatch assembly buckets chunks of similar cost together: with the
  whole data set queued (offline) bucketing is nearly perfect, with a
  live queue (server) it cannot be - which is exactly why the paper's
  NMT systems lose 39-55% of their throughput in the server scenario
  (Section VI-B).

The simulated SUT never sees scenario information: the behavioural
differences are induced purely by the arrival process, as in the real
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bounds import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_range
from ..core.events import EventHandle, EventLoop
from ..core.query import Query, new_response, sample_id_of
from ..core.sut import Responder, SutBase
from .device import ComputeMotif, DeviceModel


@dataclass(frozen=True)
class WorkloadProfile:
    """What the SUT is serving: per-sample cost, motif, variability."""

    gops_per_sample: float
    motif: ComputeMotif = ComputeMotif.DENSE_CNN
    #: Lognormal sigma of the per-sample cost multiplier (0 = fixed cost).
    variability: float = 0.0

    def __post_init__(self) -> None:
        check_range("gops_per_sample", self.gops_per_sample, POSITIVE)
        check_range("variability", self.variability, NON_NEGATIVE)


def chunk_costs(count: int, max_batch: int, variability: float,
                rng: np.random.Generator) -> List[Tuple[int, float]]:
    """(samples, worst cost multiplier) of each dispatchable slice of a
    ``count``-sample query, at most ``max_batch`` samples a slice.

    A fixed-cost workload (``variability == 0``) never touches ``rng``.
    Otherwise one lognormal draw per query, normalized so the *mean*
    cost equals ``gops_per_sample`` and sorted: reordering within a
    query is explicitly allowed, and sorted samples make the slices
    homogeneous (minimal padding waste).
    """
    if variability == 0.0 and count <= max_batch:
        return [(count, 1.0)]  # the common query: nothing to split or draw
    sizes = [max_batch] * (count // max_batch)
    if count % max_batch:
        sizes.append(count % max_batch)
    if variability == 0.0:
        return [(size, 1.0) for size in sizes]
    draws = rng.lognormal(mean=0.0, sigma=variability, size=count)
    draws /= np.exp(variability * variability / 2.0)
    draws.sort()
    # Each slice pays its last (largest) sample's multiplier.
    worst = draws[max_batch - 1::max_batch].tolist()
    if len(worst) < len(sizes):
        worst.append(float(draws[-1]))
    return list(zip(sizes, worst))


#: A dispatchable slice of one query, as queued: (owner, query, samples,
#: worst cost multiplier, arrival time).  The owner is the SUT whose
#: model the chunk runs: the device's host or one of its co-tenants.
_QueuedChunk = Tuple["SimulatedSUT", Query, int, float, float]


class SimulatedSUT(SutBase):
    """A device model serving queries on the event loop.

    The queue holds plain tuples in arrival order; ``_queued`` is its
    running sample total.  ``_efficiency`` is the workload motif's
    efficiency on the device, resolved once a run.

    Co-tenants (:meth:`co_tenant`) serve other models on this SUT's
    device and queue; each queued chunk names its owner.  A dispatch
    never mixes models: it skips other owners' chunks, so once
    co-tenants skip, the queue is no longer consumed only from its
    head.  It stays in arrival order, so its first entry is the oldest.
    """

    def __init__(
        self,
        device: DeviceModel,
        workload: WorkloadProfile,
        batch_window: float = 0.0,
        preferred_batch: Optional[int] = None,
        name: Optional[str] = None,
        seed: int = 1234,
    ) -> None:
        super().__init__(name or device.name)
        check_range("batch_window", batch_window, NON_NEGATIVE)
        if preferred_batch is not None:
            check_range("preferred_batch", preferred_batch, AT_LEAST_ONE)
        self.device = device
        self.workload = workload
        self.batch_window = batch_window
        self.preferred_batch = (
            min(preferred_batch, device.max_batch)
            if preferred_batch is not None
            else device.max_batch
        )
        self._seed = seed
        #: The SUT whose device state this one runs on: ``None`` for
        #: itself (holding itself would make every SUT a cycle), or the
        #: host it is a co-tenant of.
        self._host: Optional["SimulatedSUT"] = None
        self._rng = np.random.default_rng(seed)
        self._queue: List[_QueuedChunk] = []
        self._queued = 0
        self._pending_chunks: Dict[int, int] = {}
        self._idle_engines = device.engines
        self._window_event: Optional[EventHandle] = None
        self._efficiency = device.motif_efficiency(workload.motif)
        #: Dispatch sample counts, for batching diagnostics/tests.
        self.dispatch_batches: List[int] = []
        #: Active energy consumed by dispatches this run (Joules).
        self.energy_joules = 0.0

    def co_tenant(self, workload: WorkloadProfile,
                  name: str) -> "SimulatedSUT":
        """A SUT serving ``workload`` on this one's engines, queue,
        generator and batching window (the paper's multitenancy mode).
        It keeps its own responder, pending chunks, ``dispatch_batches``
        and ``energy_joules``; start every tenant before any issues."""
        tenant = SimulatedSUT(self.device, workload, name=name)
        tenant._host = self._host or self
        return tenant

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self._pending_chunks = {}
        self._efficiency = self.device.motif_efficiency(self.workload.motif)
        self.dispatch_batches = []
        self.energy_joules = 0.0
        if self._host is None:  # the device state is the host's alone
            self._rng = np.random.default_rng(self._seed)
            self._queue = []
            self._queued = 0
            self._idle_engines = self.device.engines
            self._window_event = None

    # -- query intake -----------------------------------------------------------

    def issue_query(self, query: Query) -> None:
        host = self._host or self
        count = len(query.samples)
        now = self._loop.clock.now()
        queue = host._queue
        max_batch = self.device.max_batch
        variability = self.workload.variability
        if variability == 0.0 and count <= max_batch:
            # The common query, as chunk_costs would give it: one chunk.
            queue.append((self, query, count, 1.0, now))
            self._pending_chunks[query.id] = 1
        else:
            chunks = chunk_costs(count, max_batch, variability, host._rng)
            for samples, worst in chunks:
                queue.append((self, query, samples, worst, now))
            self._pending_chunks[query.id] = len(chunks)
        host._queued += count
        host._try_dispatch()

    def flush(self) -> None:
        """Dispatch whatever is queued without waiting for the window."""
        host = self._host or self
        host._cancel_window()
        while host._queue and host._idle_engines > 0:
            host._dispatch_now()

    # -- batching ---------------------------------------------------------------

    def _try_dispatch(self) -> None:
        queue, window = self._queue, self.batch_window
        while queue and self._idle_engines > 0:
            if window > 0.0 and self._queued < self.preferred_batch:
                # FIFO, and the clock is monotone: the head is the oldest.
                deadline = queue[0][4] + window
                if self._loop.clock.now() < deadline:
                    self._arm_window(deadline)
                    return
            if self._window_event is not None:
                self._cancel_window()
            self._dispatch_now()

    def _arm_window(self, deadline: float) -> None:
        if self._window_event is not None and not self._window_event.cancelled:
            if self._window_event.time <= deadline:
                return
            self._window_event.cancel()
        self._window_event = self._loop.schedule(deadline, self._window_fired)

    def _cancel_window(self) -> None:
        if self._window_event is not None:
            self._window_event.cancel()
            self._window_event = None

    def _window_fired(self) -> None:
        self._window_event = None
        if self._queue and self._idle_engines > 0:
            self._dispatch_now()
            self._try_dispatch()

    def _dispatch_now(self) -> None:
        """Serve the head of the queue: FIFO batch assembly of the head
        owner's chunks up to ``max_batch`` samples, one walk that also
        totals the batch.  The walk skips other owners' chunks (a batch
        runs one model) and stops at the first own chunk that does not
        fit; the head owner's model prices the dispatch.

        Arrival-order service: a live server cannot bucket by cost
        without delaying someone past the QoS bound, so mixed-cost
        batches (and their padding waste) are inherent to the server
        scenario.  Offline escapes this because its one giant query was
        already sorted by cost at intake, making every chunk
        homogeneous - the asymmetry behind the paper's 39-55% NMT
        server-throughput loss (Section VI-B).
        """
        queue, device = self._queue, self.device
        owner = queue[0][0]
        capacity, samples, worst = device.max_batch, 0, 0.0
        taken = walked = 0
        for chunk in queue:
            if chunk[0] is owner:
                if chunk[2] > capacity:  # never the head: it fits a batch
                    break
                capacity -= chunk[2]
                samples += chunk[2]
                if chunk[3] > worst:
                    worst = chunk[3]
                taken += 1
            walked += 1
        if taken == walked:  # nothing skipped: the batch is a prefix
            batch = queue[:taken]
            del queue[:taken]
        else:  # co-tenants' chunks stay queued, in arrival order
            walk = queue[:walked]
            batch = [chunk for chunk in walk if chunk[0] is owner]
            queue[:walked] = [chunk for chunk in walk if chunk[0] is not owner]
        self._queued -= samples
        self._idle_engines -= 1
        owner.dispatch_batches.append(samples)
        duration, joules = device.cost_at(
            owner.workload.gops_per_sample * worst, samples,
            owner._efficiency)
        owner.energy_joules += joules
        loop = self._loop
        now = loop.clock.now()  # the instant schedule_after would add to
        if device.cold_boost != 1.0:
            # DVFS/thermal state: a cold device runs faster than
            # equilibrium (Section III-D's motivation for the 60 s
            # minimum duration).  At equilibrium the multiplier is 1.0,
            # and x / 1.0 == x exactly.
            duration /= device.speed_multiplier(now)
        loop.schedule(now + duration, partial(self._finish, batch))

    def _finish(self, batch: List[_QueuedChunk]) -> None:
        self._idle_engines += 1
        owner = batch[0][0]
        pending = owner._pending_chunks
        for _, query, _, _, _ in batch:
            left = pending[query.id] - 1
            if left:
                pending[query.id] = left
            else:
                del pending[query.id]
                owner.complete(query, list(map(new_response, zip(
                    map(sample_id_of, query.samples), repeat(None)))))
        if self._queue:
            self._try_dispatch()
