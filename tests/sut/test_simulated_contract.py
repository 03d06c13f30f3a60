"""The simulated SUT's behavioural contract, pinned ahead of its rewrite.

``SimulatedSUT`` and the cost formula of ``DeviceModel`` as they shipped
are kept here verbatim as the oracle (the pattern of
``tests/network/test_protocol.py``): every generated device, workload,
batching policy, scenario and seed must give the same run fingerprint,
the same dispatch sizes and the same energy, compared with ``==``.
Beside it sit what the oracle cannot see - how the ``Generator`` is
consumed, and the origin a failing dispatch completion reports - and
literal ``run_submission`` results for two small systems.
"""

from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Scenario, Task, TestSettings, run_benchmark
from repro.core.events import EventHandle, EventLoop, RunAbortedError
from repro.core.query import Query, QuerySampleResponse
from repro.core.sampler import QueryFactory
from repro.core.sut import Responder, SutBase
from repro.durability.resume import run_fingerprint
from repro.harness import experiments, tuning
from repro.harness.experiments import run_submission
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.fleet import FleetSystem, build_fleet
from repro.sut.simulated import SimulatedSUT, WorkloadProfile

from tests.conftest import EchoQSL


# -- the oracle: the parent commit's code, verbatim -------------------------------

@dataclass(frozen=True)
class OracleDeviceModel(DeviceModel):
    """``DeviceModel`` with the cost formula spelled as it shipped."""

    def utilization(self, work_gops: float) -> float:
        if work_gops <= 0:
            raise ValueError(f"work_gops must be positive, got {work_gops}")
        ramp = min(work_gops, self.saturation_gops) / self.saturation_gops
        return self.base_utilization + (1.0 - self.base_utilization) * ramp

    def motif_efficiency(self, motif: ComputeMotif) -> float:
        return self.structure_efficiency.get(motif, 1.0)

    def service_time(self, gops_per_sample: float, batch: int,
                     motif: ComputeMotif = ComputeMotif.DENSE_CNN) -> float:
        if gops_per_sample <= 0:
            raise ValueError(
                f"gops_per_sample must be positive, got {gops_per_sample}"
            )
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        work = batch * gops_per_sample
        effective = (
            self.peak_gops
            * self.utilization(work)
            * self.motif_efficiency(motif)
        )
        return self.overhead + work / effective

    def power_at(self, work_gops: float) -> float:
        return self.idle_watts + (
            (self.peak_watts - self.idle_watts) * self.utilization(work_gops)
        )

    def dispatch_energy(self, gops_per_sample: float, batch: int,
                        motif: ComputeMotif = ComputeMotif.DENSE_CNN
                        ) -> float:
        duration = self.service_time(gops_per_sample, batch, motif)
        return duration * self.power_at(batch * gops_per_sample)


@dataclass
class _Chunk:
    """A dispatchable slice of one query."""

    query: Query
    sample_count: int
    max_multiplier: float
    arrival: float


class OracleSimulatedSUT(SutBase):
    """``SimulatedSUT`` as it shipped before the rewrite."""

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
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.device = device
        self.workload = workload
        self.batch_window = batch_window
        self.preferred_batch = (
            min(preferred_batch, device.max_batch)
            if preferred_batch is not None
            else device.max_batch
        )
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._queue: List[_Chunk] = []
        self._pending_chunks: Dict[int, int] = {}
        self._idle_engines = device.engines
        self._window_event: Optional[EventHandle] = None
        self.dispatch_batches: List[int] = []
        self.energy_joules = 0.0

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self._rng = np.random.default_rng(self._seed)
        self._queue = []
        self._pending_chunks = {}
        self._idle_engines = self.device.engines
        self._window_event = None
        self.dispatch_batches = []
        self.energy_joules = 0.0

    def _sample_multipliers(self, count: int) -> np.ndarray:
        if self.workload.variability == 0.0:
            return np.ones(count)
        sigma = self.workload.variability
        draws = self._rng.lognormal(mean=0.0, sigma=sigma, size=count)
        return draws / np.exp(sigma * sigma / 2.0)

    def issue_query(self, query: Query) -> None:
        multipliers = self._sample_multipliers(query.sample_count)
        multipliers = np.sort(multipliers)
        max_batch = self.device.max_batch
        chunks = 0
        now = self.loop.now
        for start in range(0, query.sample_count, max_batch):
            part = multipliers[start:start + max_batch]
            self._queue.append(_Chunk(
                query=query,
                sample_count=len(part),
                max_multiplier=float(part[-1]),
                arrival=now,
            ))
            chunks += 1
        self._pending_chunks[query.id] = chunks
        self._try_dispatch()

    def flush(self) -> None:
        self._cancel_window()
        while self._queue and self._idle_engines > 0:
            self._dispatch_now()

    def _queued_samples(self) -> int:
        return sum(c.sample_count for c in self._queue)

    def _oldest_arrival(self) -> float:
        return min(c.arrival for c in self._queue)

    def _try_dispatch(self) -> None:
        while self._queue and self._idle_engines > 0:
            if (
                self.batch_window > 0.0
                and self._queued_samples() < self.preferred_batch
            ):
                deadline = self._oldest_arrival() + self.batch_window
                if self.loop.now < deadline:
                    self._arm_window(deadline)
                    return
            self._cancel_window()
            self._dispatch_now()

    def _arm_window(self, deadline: float) -> None:
        if self._window_event is not None and not self._window_event.cancelled:
            if self._window_event.time <= deadline:
                return
            self._window_event.cancel()
        self._window_event = self.loop.schedule(deadline, self._window_fired)

    def _cancel_window(self) -> None:
        if self._window_event is not None:
            self._window_event.cancel()
            self._window_event = None

    def _window_fired(self) -> None:
        self._window_event = None
        if self._queue and self._idle_engines > 0:
            self._dispatch_now()
            self._try_dispatch()

    def _assemble_batch(self) -> List[_Chunk]:
        batch: List[_Chunk] = [self._queue[0]]
        capacity = self.device.max_batch - self._queue[0].sample_count
        taken = 1
        for chunk in self._queue[1:]:
            if chunk.sample_count > capacity:
                break
            batch.append(chunk)
            capacity -= chunk.sample_count
            taken += 1
        del self._queue[:taken]
        return batch

    def _dispatch_now(self) -> None:
        if not self._queue:
            return
        batch = self._assemble_batch()
        samples = sum(c.sample_count for c in batch)
        worst = max(c.max_multiplier for c in batch)
        self._idle_engines -= 1
        self.dispatch_batches.append(samples)
        duration = self.device.service_time(
            self.workload.gops_per_sample * worst,
            samples,
            self.workload.motif,
        )
        duration /= self.device.speed_multiplier(self.loop.now)
        self.energy_joules += self.device.dispatch_energy(
            self.workload.gops_per_sample * worst, samples,
            self.workload.motif,
        )
        self.loop.schedule_after(
            duration, lambda batch=batch: self._finish(batch)
        )

    def _finish(self, batch: List[_Chunk]) -> None:
        self._idle_engines += 1
        for chunk in batch:
            query = chunk.query
            self._pending_chunks[query.id] -= 1
            if self._pending_chunks[query.id] == 0:
                del self._pending_chunks[query.id]
                responses = [
                    QuerySampleResponse(sample.id, None)
                    for sample in query.samples
                ]
                self.complete(query, responses)
        self._try_dispatch()


# -- (i) the rewrite against the oracle -------------------------------------------

MOTIFS = st.sampled_from(list(ComputeMotif))


@st.composite
def device_kwargs(draw):
    kwargs = dict(
        name="generated", processor=ProcessorType.GPU,
        peak_gops=draw(st.floats(200.0, 20_000.0)),
        base_utilization=draw(st.floats(0.05, 1.0)),
        saturation_gops=draw(st.floats(1.0, 200.0)),
        overhead=draw(st.floats(0.0, 2e-3)),
        max_batch=draw(st.integers(1, 64)),
        engines=draw(st.integers(1, 3)),
        cold_boost=draw(st.sampled_from([1.0, 1.3])),
        thermal_time_constant=draw(st.sampled_from([0.05, 20.0])),
    )
    if draw(st.booleans()):
        kwargs["structure_efficiency"] = {
            draw(MOTIFS): draw(st.floats(0.2, 1.0))}
    return kwargs


WORKLOADS = st.builds(
    WorkloadProfile,
    gops_per_sample=st.floats(0.5, 60.0),
    motif=MOTIFS,
    variability=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
)


@st.composite
def scenario_settings(draw):
    """Small runs of the paper's four scenarios, under- and overloaded."""
    scenario = draw(st.sampled_from([
        Scenario.SINGLE_STREAM, Scenario.MULTI_STREAM,
        Scenario.SERVER, Scenario.OFFLINE]))
    overrides = dict(scenario=scenario, min_duration=0.0,
                     seed=draw(st.integers(0, 2**31 - 1)))
    if scenario is Scenario.SERVER:
        overrides.update(
            server_target_qps=draw(st.floats(20.0, 20_000.0)),
            server_latency_bound=10.0,
            min_query_count=draw(st.integers(1, 120)))
    elif scenario is Scenario.MULTI_STREAM:
        overrides.update(
            multistream_samples_per_query=draw(st.integers(1, 150)),
            multistream_interval=draw(st.sampled_from([1e-3, 0.05])),
            min_query_count=draw(st.integers(1, 40)))
    elif scenario is Scenario.OFFLINE:
        overrides.update(
            offline_sample_count=draw(st.integers(1, 400)),
            min_query_count=1)
    else:
        overrides.update(min_query_count=draw(st.integers(1, 60)))
    return TestSettings(**overrides)


def run_of(sut_class, device_class, kwargs, workload, window, preferred,
           sut_seed, run_settings):
    device = device_class(**kwargs)
    sut = sut_class(device, workload, batch_window=window,
                    preferred_batch=preferred, seed=sut_seed)
    result = run_benchmark(sut, EchoQSL(), run_settings)
    return run_fingerprint(result), sut.dispatch_batches, sut.energy_joules


@settings(max_examples=150, deadline=None)
@given(kwargs=device_kwargs(), workload=WORKLOADS,
       window=st.sampled_from([0.0, 0.0, 4e-4, 5e-3]),
       preferred=st.one_of(st.none(), st.integers(1, 80)),
       sut_seed=st.integers(0, 2**31 - 1),
       run_settings=scenario_settings())
def test_runs_equal_the_oracle(kwargs, workload, window, preferred,
                               sut_seed, run_settings):
    expected = run_of(OracleSimulatedSUT, OracleDeviceModel, kwargs,
                      workload, window, preferred, sut_seed, run_settings)
    actual = run_of(SimulatedSUT, DeviceModel, kwargs, workload, window,
                    preferred, sut_seed, run_settings)
    assert actual[1] == expected[1]  # dispatch sizes: the readable one first
    assert actual[2] == expected[2]
    assert actual[0] == expected[0]


def scripted(sut_class, device_class, kwargs, workload, window, preferred,
             script):
    """Drive a SUT by hand: ``(gap, samples)`` arrivals, a flush where
    ``samples`` is 0.  Returns every completion, the dispatch sizes and
    the energy."""
    loop, factory, done = EventLoop(), QueryFactory(), []
    sut = sut_class(device_class(**kwargs), workload, batch_window=window,
                    preferred_batch=preferred)
    sut.start_run(loop, lambda query, responses: done.append(
        (loop.now, query.id, [r.sample_id for r in responses])))
    when = 0.0
    for gap, samples in script:
        when += gap
        if samples:
            query = factory.make_query(list(range(samples)))
            loop.schedule(when, lambda query=query: sut.issue_query(query))
        else:
            loop.schedule(when, sut.flush)
    loop.run()
    return done, sut.dispatch_batches, sut.energy_joules


@settings(max_examples=500, deadline=None)
@given(kwargs=device_kwargs(), workload=WORKLOADS,
       window=st.sampled_from([0.0, 1e-3, 8e-3, 6e-2]),
       preferred=st.one_of(st.none(), st.integers(1, 80)),
       script=st.lists(st.tuples(
           st.sampled_from([0.0, 1e-4, 7e-4, 3e-3, 2e-2]),
           st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 150))),
           min_size=1, max_size=40))
def test_scripted_arrivals_equal_the_oracle(kwargs, workload, window,
                                            preferred, script):
    """Bursts, lulls and flushes against a held window: queue states a
    scenario run reaches only by luck."""
    expected = scripted(OracleSimulatedSUT, OracleDeviceModel, kwargs,
                        workload, window, preferred, script)
    actual = scripted(SimulatedSUT, DeviceModel, kwargs, workload, window,
                      preferred, script)
    assert actual[1] == expected[1]
    assert actual[2] == expected[2]
    assert actual[0] == expected[0]


def test_a_second_run_on_one_sut_equals_the_oracle():
    """``start_run`` resets every piece of queue bookkeeping."""
    kwargs = dict(name="twice", processor=ProcessorType.GPU,
                  peak_gops=900.0, max_batch=6, engines=2)
    workload = WorkloadProfile(3.0, variability=0.4)
    run_settings = TestSettings(
        scenario=Scenario.SERVER, server_target_qps=4_000.0,
        server_latency_bound=10.0, min_query_count=150, min_duration=0.0)
    outcomes = []
    for sut_class, device_class in ((OracleSimulatedSUT, OracleDeviceModel),
                                    (SimulatedSUT, DeviceModel)):
        sut = sut_class(device_class(**kwargs), workload, batch_window=2e-3)
        run_benchmark(sut, EchoQSL(), run_settings)
        second = run_benchmark(sut, EchoQSL(), run_settings)
        outcomes.append((run_fingerprint(second), sut.dispatch_batches,
                         sut.energy_joules))
    assert outcomes[0] == outcomes[1]


# -- the cost formula's values -----------------------------------------------------

WORK = st.floats(1e-6, 1e6)


@settings(max_examples=300, deadline=None)
@given(kwargs=device_kwargs(), gops=WORK, batch=st.integers(1, 4096),
       motif=MOTIFS,
       watts=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 400.0)))
def test_cost_formula_values_equal_the_oracle(kwargs, gops, batch, motif,
                                              watts):
    kwargs.update(idle_watts=watts[0], peak_watts=watts[0] + watts[1])
    device, oracle = DeviceModel(**kwargs), OracleDeviceModel(**kwargs)
    assert device.motif_efficiency(motif) == oracle.motif_efficiency(motif)
    assert device.cost_at(gops, batch, device.motif_efficiency(motif)) == (
        oracle.service_time(gops, batch, motif),
        oracle.dispatch_energy(gops, batch, motif))
    assert device.service_time(gops, batch) == \
        oracle.service_time(gops, batch)
    assert device.dispatch_energy(gops, batch) == \
        oracle.dispatch_energy(gops, batch)
    assert device.energy_per_sample(gops, batch) == \
        oracle.dispatch_energy(gops, batch) / batch


@pytest.mark.parametrize("method", ["service_time", "dispatch_energy"])
@pytest.mark.parametrize("gops, batch", [(0.0, 1), (-1.0, 4), (2.0, 0),
                                         (2.0, -3)])
def test_cost_formula_guards_equal_the_oracle(method, gops, batch):
    kwargs = dict(name="guarded", processor=ProcessorType.CPU, peak_gops=10.0)
    with pytest.raises(ValueError) as expected:
        getattr(OracleDeviceModel(**kwargs), method)(gops, batch)
    with pytest.raises(ValueError) as actual:
        getattr(DeviceModel(**kwargs), method)(gops, batch)
    assert str(actual.value) == str(expected.value)


FLEET_DEVICES = [system.device for system in build_fleet()]


def as_oracle(device):
    return OracleDeviceModel(**{f.name: getattr(device, f.name)
                                for f in fields(device)})


@pytest.mark.parametrize("device", FLEET_DEVICES,
                         ids=[d.name for d in FLEET_DEVICES])
def test_every_fleet_dispatch_cost_equals_the_oracle(device):
    """``cost_at`` at each motif's efficiency, bit for bit, for every
    device the paper's fleet ships, every motif, batches 1, 2 and the
    largest, and a small, a mid-sized and a huge per-sample cost."""
    oracle = as_oracle(device)
    for motif in ComputeMotif:
        efficiency = device.motif_efficiency(motif)
        assert efficiency == oracle.motif_efficiency(motif)
        for batch in (1, 2, device.max_batch):
            for gops in (0.5688, 8.2, 433.0):
                assert device.cost_at(gops, batch, efficiency) == (
                    oracle.service_time(gops, batch, motif),
                    oracle.dispatch_energy(gops, batch, motif),
                ), (device.name, motif, batch, gops)


# -- what the oracle cannot see -----------------------------------------------------

class RecordingGenerator:
    """Stands in for the SUT's ``Generator`` and notes every request."""

    def __init__(self) -> None:
        self.requests = []
        self._rng = np.random.default_rng(5)

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            self.requests.append((name, args, kwargs))
            return getattr(self._rng, name)(*args, **kwargs)
        return draw


def issue(sut, counts):
    loop, factory = EventLoop(), QueryFactory()
    sut.start_run(loop, lambda query, responses: None)
    sut._rng = recorder = RecordingGenerator()
    for count in counts:
        sut.issue_query(factory.make_query(list(range(count))))
    loop.run()
    return recorder.requests


def small_device(**overrides):
    kwargs = dict(name="small", processor=ProcessorType.GPU, peak_gops=500.0,
                  max_batch=8)
    kwargs.update(overrides)
    return DeviceModel(**kwargs)


def test_fixed_cost_workload_never_touches_the_generator():
    sut = SimulatedSUT(small_device(), WorkloadProfile(2.0))
    assert issue(sut, [1, 8, 9, 30]) == []


def test_variable_cost_workload_draws_once_per_query():
    sut = SimulatedSUT(small_device(), WorkloadProfile(2.0, variability=0.6))
    requests = issue(sut, [1, 8, 9, 30])
    assert [name for name, _, _ in requests] == ["lognormal"] * 4
    sizes = [kwargs.get("size", args[-1] if args else None)
             for _, args, kwargs in requests]
    assert sizes == [1, 8, 9, 30]


def test_failing_dispatch_completion_names_itself_without_an_address():
    def responder(query, responses):
        raise KeyError("referee fell over")

    origins = []
    for _ in range(2):
        loop = EventLoop()
        sut = SimulatedSUT(small_device(), WorkloadProfile(2.0))
        sut.start_run(loop, responder)
        sut.issue_query(QueryFactory().make_query([0]))
        with pytest.raises(RunAbortedError) as abort:
            loop.run()
        origins.append(abort.value.origin)
    assert origins[0] == origins[1]
    assert "SimulatedSUT" in origins[0] and "0x" not in origins[0]


def test_unstarted_sut_refuses_a_query():
    sut = SimulatedSUT(small_device(), WorkloadProfile(2.0))
    with pytest.raises(RuntimeError, match="start_run was never called"):
        sut.issue_query(QueryFactory().make_query([0]))


# -- (iii) two submissions, as literals ---------------------------------------------

#: (``repr`` of the record's metric, LoadGen runs the search made).
SERVER_GNMT_PIN = ("1327.9637039626339", 11)
MULTISTREAM_PIN = ("56.0", 12)

def counted_submission(monkeypatch, system, task, scenario):
    """``run_submission`` plus how many LoadGen runs its search made."""
    runs = []
    inner = tuning.run_benchmark

    def counting(*args, **kwargs):
        runs.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tuning, "run_benchmark", counting)
    record = run_submission(system, task, scenario, seed=3)
    return record, len(runs)


def test_server_search_with_gnmt_is_pinned(monkeypatch):
    system = FleetSystem(
        device=DeviceModel(
            name="pinned-gpu", processor=ProcessorType.GPU,
            peak_gops=30_000.0, base_utilization=0.1,
            saturation_gops=120.0, overhead=4e-4, max_batch=32, engines=2,
            structure_efficiency={ComputeMotif.RNN: 0.45}),
        framework="TensorRT", category="available",
        plan={"G": ("S",)}, batch_window=2e-3)
    record, runs = counted_submission(
        monkeypatch, system, Task.MACHINE_TRANSLATION, Scenario.SERVER)
    assert (repr(record.metric), runs) == SERVER_GNMT_PIN


def test_multistream_search_is_pinned(monkeypatch):
    system = FleetSystem(
        device=DeviceModel(
            name="pinned-dsp", processor=ProcessorType.DSP,
            peak_gops=4_000.0, base_utilization=0.3, saturation_gops=20.0,
            overhead=1e-3, max_batch=8, cold_boost=1.2,
            structure_efficiency={ComputeMotif.DEPTHWISE_CNN: 0.6}),
        framework="SNPE", category="available", plan={"MN": ("MS",)})
    record, runs = counted_submission(
        monkeypatch, system, Task.IMAGE_CLASSIFICATION_LIGHT,
        Scenario.MULTI_STREAM)
    assert (repr(record.metric), runs) == MULTISTREAM_PIN


def test_run_submission_builds_the_module_global_sut(monkeypatch):
    """The benchmark's traced pass swaps ``experiments.SimulatedSUT``."""
    built = []

    def spy(*args, **kwargs):
        built.append(1)
        return SimulatedSUT(*args, **kwargs)

    monkeypatch.setattr(experiments, "SimulatedSUT", spy)
    system = FleetSystem(
        device=small_device(), framework="x", category="available",
        plan={"RN": ("SS",)})
    run_submission(system, Task.IMAGE_CLASSIFICATION_HEAVY,
                   Scenario.SINGLE_STREAM)
    assert built

