"""Shard transport: handle round-trips and SHM lifecycle."""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.parallel import (PickleTransport, SharedMemoryTransport,
                            active_segment_names, open_handle, shm_available)


def sample_arrays():
    return {
        "offsets": np.arange(5, dtype=np.float64) * 1.5,
        "bytes": np.array([10, 20, 30], dtype=np.int64),
    }


def assert_bundle_equal(arrays, expected):
    assert set(arrays) == set(expected)
    for name, array in expected.items():
        np.testing.assert_array_equal(arrays[name], array)
        assert arrays[name].dtype == array.dtype


class TestPickleTransport:
    def test_publish_round_trip(self):
        expected = sample_arrays()
        with PickleTransport() as channel:
            assert not channel.is_shared
            handle = channel.publish(expected)
            assert handle.is_inline
            with open_handle(handle) as arrays:
                assert_bundle_equal(arrays, expected)

    def test_handle_pickles(self):
        with PickleTransport() as channel:
            handle = channel.publish(sample_arrays())
            clone = pickle.loads(pickle.dumps(handle))
            with open_handle(clone) as arrays:
                assert_bundle_equal(arrays, sample_arrays())

    def test_attach_returns_arrays(self):
        with PickleTransport() as channel:
            handle = channel.publish(sample_arrays())
            assert_bundle_equal(channel.attach(handle), sample_arrays())


@pytest.mark.skipif(not shm_available(), reason="no shared memory here")
class TestSharedMemoryTransport:
    def test_publish_round_trip_and_cleanup(self):
        expected = sample_arrays()
        with SharedMemoryTransport() as channel:
            assert channel.is_shared
            handle = channel.publish(expected)
            assert not handle.is_inline
            with open_handle(handle) as arrays:
                assert_bundle_equal(arrays, expected)
            assert active_segment_names()
        assert not active_segment_names()

    def test_allocate_then_write_then_attach(self):
        with SharedMemoryTransport() as channel:
            handle = channel.allocate({"values": ("float64", (4,))})
            with open_handle(handle) as arrays:
                arrays["values"][:] = [1.0, 2.0, 3.0, 4.0]
            read_back = channel.attach(handle)
            np.testing.assert_array_equal(read_back["values"],
                                          [1.0, 2.0, 3.0, 4.0])

    def test_handle_pickles_and_opens_in_child(self):
        expected = sample_arrays()
        context = multiprocessing.get_context()
        with SharedMemoryTransport() as channel:
            handle = channel.publish(expected)
            with context.Pool(1) as pool:
                total = pool.apply(_child_sum, (handle,))
            assert total == pytest.approx(
                float(sum(array.sum() for array in expected.values())))

    def test_cleanup_survives_live_views(self):
        # numpy views exported from the mapped buffer normally make
        # SharedMemory.close() raise BufferError; cleanup must still
        # unlink the segment (no /dev/shm leak) without raising.
        channel = SharedMemoryTransport()
        handle = channel.publish(sample_arrays())
        arrays = channel.attach(handle)
        assert arrays["offsets"].shape == (5,)
        channel.cleanup()
        assert not active_segment_names()


def _child_sum(handle):
    with open_handle(handle) as arrays:
        return float(sum(array.sum() for array in arrays.values()))
