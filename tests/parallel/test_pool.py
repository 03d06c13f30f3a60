"""WorkerPool: sharding, transports, crash detection, deterministic seeding."""

import numpy as np
import pytest

from repro.parallel.pool import (
    WorkerCrashed,
    WorkerPool,
    shard_evenly,
)

from tests.conftest import alive_workers


def doubler_factory():
    def predict(samples):
        return [s * 2 for s in samples]
    return predict


def stacked_factory():
    def predict(samples):
        return np.stack(samples) * 2  # one (N, ...) result array
    return predict


def seeded_factory(rng):
    token = float(rng.random())  # fixed per worker at build time

    def predict(samples):
        return [np.asarray(s) * 0 + token for s in samples]
    return predict


class TestShardEvenly:
    def test_contiguous_near_even_split(self):
        assert shard_evenly(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_fewer_items_than_shards_leaves_empties(self):
        assert shard_evenly([1, 2], 4) == [[1], [2], [], []]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_evenly([1], 0)


class TestRunShards:
    def test_outputs_come_back_in_shard_order(self):
        samples = [np.full((4,), i, dtype=np.float32) for i in range(10)]
        with WorkerPool(doubler_factory, workers=3, seed=1) as pool:
            outcomes = pool.run_shards(shard_evenly(samples, 3))
        flat = [o for outcome in outcomes for o in outcome.outputs]
        assert len(flat) == 10
        for i, out in enumerate(flat):
            np.testing.assert_array_equal(out, np.full((4,), 2 * i))

    def test_stacked_ndarray_outputs_are_split_per_sample(self):
        samples = [np.full((2,), i, dtype=np.float32) for i in range(5)]
        with WorkerPool(stacked_factory, workers=2, seed=1) as pool:
            outcomes = pool.run_shards(shard_evenly(samples, 2))
        flat = [o for outcome in outcomes for o in outcome.outputs]
        assert [float(o[0]) for o in flat] == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_empty_shards_are_skipped(self):
        samples = [np.zeros((2,), dtype=np.float32)]
        with WorkerPool(doubler_factory, workers=4, seed=1) as pool:
            outcomes = pool.run_shards(shard_evenly(samples, 4))
        assert [len(o.outputs) for o in outcomes] == [1, 0, 0, 0]

    def test_shm_transport_accounts_transfer_bytes(self):
        samples = [np.zeros((16,), dtype=np.float32) for _ in range(4)]
        with WorkerPool(doubler_factory, workers=2, seed=1) as pool:
            outcomes = pool.run_shards(shard_evenly(samples, 2))
            assert pool.stats.shm_dispatches == 2
            assert pool.stats.pickle_dispatches == 0
            assert pool.stats.bytes_in == 4 * 64  # 64 B-aligned blocks
        assert all(o.via_shm for o in outcomes)

    def test_non_array_samples_fall_back_to_pickle(self):
        with WorkerPool(doubler_factory, workers=1, seed=1) as pool:
            outcomes = pool.run_shards([[3, 5]])
            assert pool.stats.pickle_dispatches == 1
        assert outcomes[0].outputs == [6, 10]
        assert not outcomes[0].via_shm

    def test_pickle_transport_forced(self):
        samples = [np.ones((4,), dtype=np.float32)]
        with WorkerPool(doubler_factory, workers=1, seed=1,
                        transport="pickle") as pool:
            outcomes = pool.run_shards([samples])
            assert pool.stats.shm_dispatches == 0
            assert pool.stats.pickle_dispatches == 1
        np.testing.assert_array_equal(outcomes[0].outputs[0], samples[0] * 2)

    def test_result_arena_overflow_recovers_via_pickle_then_grows(self):
        def expander_factory():
            def predict(samples):
                # Outputs 64x larger than inputs: overflows the result
                # arena the first time.
                return [np.tile(s, 64) for s in samples]
            return predict

        samples = [np.ones((256,), dtype=np.float64)]
        with WorkerPool(expander_factory, workers=1, seed=1) as pool:
            first = pool.run_shards([samples])
            second = pool.run_shards([samples])
        assert first[0].outputs[0].shape == (256 * 64,)
        # After the parent grew the arena, the reply travels via shm.
        assert second[0].via_shm


class TestDeterministicSeeding:
    def test_worker_rng_is_pure_function_of_seed_and_index(self):
        def tokens(pool_seed):
            with WorkerPool(seeded_factory, workers=3,
                            seed=pool_seed) as pool:
                outcomes = pool.run_shards(
                    [[np.zeros(1)], [np.zeros(1)], [np.zeros(1)]])
            return [float(o.outputs[0][0]) for o in outcomes]

        first = tokens(42)
        second = tokens(42)
        other = tokens(43)
        assert first == second          # reproducible across pools
        assert len(set(first)) == 3     # distinct streams per worker
        assert first != other           # seed actually matters


class TestCrashes:
    def test_killed_worker_surfaces_as_worker_crashed(self):
        samples = [np.zeros((4,), dtype=np.float32) for _ in range(4)]
        with WorkerPool(doubler_factory, workers=2, seed=1) as pool:
            pool.run_shards(shard_evenly(samples, 2))  # warm
            pool.kill_worker(1)
            with pytest.raises(WorkerCrashed) as info:
                pool.run_shards(shard_evenly(samples, 2))
            assert info.value.index == 1
            assert pool.stats.crashes == 1

    def test_ensure_alive_respawns_and_pool_recovers(self):
        samples = [np.full((4,), 3.0, dtype=np.float32)] * 4
        with WorkerPool(doubler_factory, workers=2, seed=1) as pool:
            pool.run_shards(shard_evenly(samples, 2))
            pool.kill_worker(0)
            assert alive_workers(pool) == 1
            assert pool.ensure_alive() == 1
            assert alive_workers(pool) == 2
            outcomes = pool.run_shards(shard_evenly(samples, 2))
            assert pool.stats.restarts == 1
        flat = [o for outcome in outcomes for o in outcome.outputs]
        assert len(flat) == 4

    def test_worker_exception_is_a_crash_with_traceback(self):
        def broken_factory():
            def predict(samples):
                raise RuntimeError("kaboom in the worker")
            return predict

        with WorkerPool(broken_factory, workers=1, seed=1) as pool:
            with pytest.raises(WorkerCrashed) as info:
                pool.run_shards([[np.zeros(1)]])
        assert "kaboom in the worker" in str(info.value)

    def test_short_output_count_is_a_crash(self):
        def short_factory():
            def predict(samples):
                return [np.zeros(1)]  # always one output
            return predict

        with WorkerPool(short_factory, workers=1, seed=1) as pool:
            with pytest.raises(WorkerCrashed, match="2 samples"):
                pool.run_shards([[np.zeros(1), np.zeros(1)]])

    def test_job_timeout_kills_and_raises(self):
        def sleeper_factory():
            import time

            def predict(samples):
                time.sleep(30.0)
                return samples
            return predict

        with WorkerPool(sleeper_factory, workers=1, seed=1,
                        job_timeout=0.3) as pool:
            with pytest.raises(WorkerCrashed, match="timeout"):
                pool.run_shards([[np.zeros(1)]])


class TestValidation:
    def test_rejects_bad_worker_count_and_transport(self):
        with pytest.raises(ValueError):
            WorkerPool(doubler_factory, workers=0)
        with pytest.raises(ValueError):
            WorkerPool(doubler_factory, workers=1, transport="carrier-pigeon")

    def test_rejects_more_shards_than_workers(self):
        with WorkerPool(doubler_factory, workers=1, seed=1) as pool:
            with pytest.raises(ValueError):
                pool.run_shards([[1], [2]])
