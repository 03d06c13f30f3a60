"""Event-driven simulated SUT: batching, chunking, padding waste."""

import numpy as np
import pytest

from repro.core.events import EventLoop
from repro.core.sampler import QueryFactory
from repro.sut.device import ComputeMotif, DeviceModel, ProcessorType
from repro.sut.simulated import SimulatedSUT, WorkloadProfile, chunk_costs


def make_device(**kwargs):
    defaults = dict(
        name="dev", processor=ProcessorType.GPU, peak_gops=1000.0,
        base_utilization=0.5, saturation_gops=10.0, overhead=1e-3,
        max_batch=8,
    )
    defaults.update(kwargs)
    return DeviceModel(**defaults)


class Harness:
    """Drives a SimulatedSUT directly, collecting completions."""

    def __init__(self, sut):
        self.loop = EventLoop()
        self.sut = sut
        self.factory = QueryFactory()
        self.completions = []
        sut.start_run(self.loop, self._on_complete)

    def _on_complete(self, query, responses):
        self.completions.append((self.loop.now, query, responses))

    def issue(self, sample_count=1, at=None):
        query = self.factory.make_query(list(range(sample_count)))
        if at is None:
            self.sut.issue_query(query)
        else:
            self.loop.schedule(at, lambda: self.sut.issue_query(query))
        return query


class TestBasicService:
    def test_single_query_completes_after_service_time(self):
        device = make_device()
        sut = SimulatedSUT(device, WorkloadProfile(2.0))
        h = Harness(sut)
        h.issue(1)
        h.loop.run()
        (when, query, responses), = h.completions
        assert when == pytest.approx(device.service_time(2.0, 1))
        assert len(responses) == 1

    def test_every_sample_gets_a_response(self):
        sut = SimulatedSUT(make_device(), WorkloadProfile(1.0))
        h = Harness(sut)
        query = h.issue(5)
        h.loop.run()
        _, _, responses = h.completions[0]
        assert {r.sample_id for r in responses} == \
            {s.id for s in query.samples}

    def test_start_run_resets_state(self):
        sut = SimulatedSUT(make_device(), WorkloadProfile(1.0))
        h1 = Harness(sut)
        h1.issue(3)
        h1.loop.run()
        h2 = Harness(sut)   # re-register with a fresh loop
        h2.issue(3)
        h2.loop.run()
        assert len(h2.completions) == 1


class TestChunkingAndBatching:
    def test_large_query_split_into_max_batch_chunks(self):
        sut = SimulatedSUT(make_device(max_batch=8), WorkloadProfile(1.0))
        h = Harness(sut)
        h.issue(20)
        h.loop.run()
        assert sut.dispatch_batches == [8, 8, 4]
        assert len(h.completions) == 1   # one query, one completion

    def test_queued_singles_batch_together(self):
        # One engine busy: queries arriving during service batch up.
        device = make_device(max_batch=8)
        sut = SimulatedSUT(device, WorkloadProfile(4.0))
        h = Harness(sut)
        h.issue(1, at=0.0)
        first_service = device.service_time(4.0, 1)
        for k in range(4):
            h.issue(1, at=first_service * 0.5 + k * 1e-6)
        h.loop.run()
        assert sut.dispatch_batches[0] == 1
        assert sut.dispatch_batches[1] == 4

    def test_fifo_order_respected(self):
        sut = SimulatedSUT(make_device(max_batch=1), WorkloadProfile(4.0))
        h = Harness(sut)
        queries = [h.issue(1, at=k * 1e-6) for k in range(4)]
        h.loop.run()
        completed_ids = [q.id for _t, q, _r in h.completions]
        assert completed_ids == [q.id for q in queries]

    def test_engines_run_concurrently(self):
        device = make_device(engines=2, max_batch=1)
        sut = SimulatedSUT(device, WorkloadProfile(4.0))
        h = Harness(sut)
        h.issue(1, at=0.0)
        h.issue(1, at=0.0)
        h.loop.run()
        service = device.service_time(4.0, 1)
        times = [t for t, _q, _r in h.completions]
        assert times[0] == pytest.approx(service)
        assert times[1] == pytest.approx(service)


class TestBatchWindow:
    def test_window_delays_small_dispatch(self):
        device = make_device(max_batch=8)
        sut = SimulatedSUT(device, WorkloadProfile(1.0),
                           batch_window=0.010, preferred_batch=8)
        h = Harness(sut)
        h.issue(1, at=0.0)
        h.loop.run()
        when, _, _ = h.completions[0]
        assert when == pytest.approx(0.010 + device.service_time(1.0, 1))

    def test_full_batch_dispatches_immediately(self):
        device = make_device(max_batch=4)
        sut = SimulatedSUT(device, WorkloadProfile(1.0),
                           batch_window=0.050, preferred_batch=4)
        h = Harness(sut)
        h.issue(4, at=0.0)
        h.loop.run()
        when, _, _ = h.completions[0]
        assert when == pytest.approx(device.service_time(1.0, 4))

    def test_flush_overrides_window(self):
        device = make_device(max_batch=8)
        sut = SimulatedSUT(device, WorkloadProfile(1.0),
                           batch_window=10.0, preferred_batch=8)
        h = Harness(sut)
        h.issue(1, at=0.0)
        h.loop.schedule(0.001, sut.flush)
        h.loop.run()
        when, _, _ = h.completions[0]
        assert when < 0.1

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            SimulatedSUT(make_device(), WorkloadProfile(1.0),
                         batch_window=-1.0)

    @pytest.mark.parametrize("preferred", [0, -5])
    def test_preferred_batch_below_one_rejected(self, preferred):
        """It used to be stored as it came: ``queued < -5`` is never
        true, so the window silently never held anything back."""
        with pytest.raises(ValueError, match="preferred_batch"):
            SimulatedSUT(make_device(), WorkloadProfile(1.0),
                         batch_window=0.010, preferred_batch=preferred)

    def test_preferred_batch_is_capped_at_max_batch(self):
        sut = SimulatedSUT(make_device(max_batch=8), WorkloadProfile(1.0),
                           batch_window=0.010, preferred_batch=100)
        assert sut.preferred_batch == 8

    def test_window_is_measured_from_the_oldest_queued_chunk(self):
        """Later arrivals join the held batch; they do not restart it."""
        device = make_device(max_batch=8)
        sut = SimulatedSUT(device, WorkloadProfile(1.0),
                           batch_window=0.010, preferred_batch=8)
        h = Harness(sut)
        for at in (0.0, 0.004, 0.008):
            h.issue(1, at=at)
        h.loop.run()
        assert sut.dispatch_batches == [3]
        done = 0.010 + device.service_time(1.0, 3)
        assert [when for when, _, _ in h.completions] == [
            pytest.approx(done)] * 3


class TestVariability:
    def test_zero_variability_is_deterministic(self):
        sut = SimulatedSUT(make_device(), WorkloadProfile(1.0, variability=0.0))
        h = Harness(sut)
        h.issue(8)
        h.loop.run()
        base = h.completions[0][0]
        sut2 = SimulatedSUT(make_device(), WorkloadProfile(1.0, variability=0.0))
        h2 = Harness(sut2)
        h2.issue(8)
        h2.loop.run()
        assert h2.completions[0][0] == base

    def test_variability_pays_the_max_multiplier(self):
        flat = SimulatedSUT(make_device(max_batch=64),
                            WorkloadProfile(1.0, variability=0.0))
        hf = Harness(flat)
        hf.issue(64)
        hf.loop.run()
        varied = SimulatedSUT(make_device(max_batch=64),
                              WorkloadProfile(1.0, variability=0.8))
        hv = Harness(varied)
        hv.issue(64)
        hv.loop.run()
        assert hv.completions[0][0] > hf.completions[0][0]

    def test_within_query_sorting_reduces_padding(self):
        """A multi-chunk query sorts its samples: homogeneous chunks
        beat the cost of padding every chunk to the global max."""
        device = make_device(max_batch=8, overhead=0.0)
        sut = SimulatedSUT(device, WorkloadProfile(1.0, variability=1.0),
                           seed=3)
        h = Harness(sut)
        h.issue(64)
        h.loop.run()
        done = h.completions[0][0]
        # Upper bound: every one of the 8 chunks paying the global max.
        rng = np.random.default_rng(3)
        draws = rng.lognormal(0.0, 1.0, 64) / np.exp(0.5)
        worst = 8 * device.service_time(1.0 * draws.max(), 8)
        assert done < 0.8 * worst

    @pytest.mark.parametrize("variability", [0.0, 0.6])
    @pytest.mark.parametrize("count, max_batch", [
        (1, 8), (8, 8), (9, 8), (16, 8), (30, 8), (5, 1), (1, 1)])
    def test_chunk_costs_equal_sorted_slices(self, count, max_batch,
                                             variability):
        """Each chunk is a ``max_batch`` slice of the query's sorted
        multipliers and pays the slice's largest."""
        chunks = chunk_costs(count, max_batch, variability,
                             np.random.default_rng(11))
        if variability:
            draws = np.random.default_rng(11).lognormal(
                mean=0.0, sigma=variability, size=count)
            multipliers = np.sort(draws / np.exp(variability ** 2 / 2.0))
        else:
            multipliers = np.ones(count)
        slices = [multipliers[start:start + max_batch]
                  for start in range(0, count, max_batch)]
        assert chunks == [(len(part), float(part[-1])) for part in slices]

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(0.0)
        with pytest.raises(ValueError):
            WorkloadProfile(1.0, variability=-0.1)
