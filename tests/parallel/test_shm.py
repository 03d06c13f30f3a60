"""Shared-memory arena: pack/unpack fidelity, growth, ownership."""

import numpy as np
import pytest

from repro.parallel.shm import ShmArena, as_arrays, attach, packed_size


@pytest.fixture
def arena():
    a = ShmArena("test")
    yield a
    a.close()


class TestPackUnpack:
    def test_roundtrip_preserves_values_dtypes_shapes(self, arena):
        arrays = [
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.array([[1, 2], [3, 4]], dtype=np.int64),
            np.zeros((5,), dtype=np.uint8),
            np.array(3.5, dtype=np.float64).reshape(()),
        ]
        specs = arena.write(arrays)
        out = arena.read_own(specs)
        assert len(out) == len(arrays)
        for orig, copy in zip(arrays, out):
            assert copy.dtype == orig.dtype
            assert copy.shape == orig.shape
            np.testing.assert_array_equal(copy, orig)

    def test_reads_are_copies_not_views(self, arena):
        first = arena.write([np.full((8,), 7.0, dtype=np.float32)])
        out = arena.read_own(first)[0]
        # Overwrite the arena with the next dispatch's data.
        arena.write([np.zeros((8,), dtype=np.float32)])
        np.testing.assert_array_equal(out, np.full((8,), 7.0))

    def test_non_contiguous_input_is_packed_correctly(self, arena):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        sliced = base[:, ::2]  # non-contiguous view
        out = arena.read_own(arena.write([sliced]))[0]
        np.testing.assert_array_equal(out, sliced)

    def test_packed_size_is_aligned(self):
        arrays = [np.zeros(1, dtype=np.uint8), np.zeros(65, dtype=np.uint8)]
        assert packed_size(arrays) == 64 + 128


class TestGrowth:
    def test_grows_by_recreation_under_new_name(self, arena):
        small_name = arena.name
        big = np.zeros((1 << 14,), dtype=np.float64)  # 128 KiB > 64 KiB
        specs = arena.write([big])
        assert arena.name != small_name
        assert arena.grown == 1
        np.testing.assert_array_equal(arena.read_own(specs)[0], big)
        # The superseded segment is unlinked: attaching must fail.
        with pytest.raises(FileNotFoundError):
            attach(small_name)

    def test_no_growth_when_capacity_suffices(self, arena):
        name = arena.name
        for _ in range(5):
            arena.write([np.zeros((16,), dtype=np.float32)])
        assert arena.name == name
        assert arena.grown == 0


class TestAttach:
    def test_reader_sees_writer_data(self, arena):
        payload = np.arange(10, dtype=np.int32)
        specs = arena.write([payload])
        seg = attach(arena.name)
        try:
            np.testing.assert_array_equal(
                ShmArena.read(seg, specs)[0], payload)
        finally:
            seg.close()


class TestAsArrays:
    def test_all_numpy_passes_through(self):
        arrays = [np.zeros(2), np.ones(3)]
        assert as_arrays(arrays) == arrays

    def test_mixed_or_empty_returns_none(self):
        assert as_arrays([np.zeros(2), "not-an-array"]) is None
        assert as_arrays([1, 2, 3]) is None
        assert as_arrays([]) is None
