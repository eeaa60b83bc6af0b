"""Unit tests for the zero-copy shared-memory transport.

Covers :mod:`repro.sharedmem`: descriptor/payload round-trips, the slab
pool's packing and lifecycle discipline, worker-result encoding, and
the no-leak invariant every exit path must uphold.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import sharedmem
from repro.sharedmem import (
    ArrayDescriptor,
    SharedArrayPool,
    ShmPayload,
    attach_array,
    decode_result,
    maybe_shm_dumps,
    release_payload,
    shm_loads,
)

pytestmark = pytest.mark.skipif(
    not sharedmem.shm_supported(),
    reason="multiprocessing.shared_memory unusable on this platform",
)


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = sharedmem.active_segments()
    yield
    sharedmem.detach_segments()
    assert sharedmem.active_segments() == before


class TestPool:
    def test_put_array_round_trip(self):
        arr = np.arange(5000, dtype=np.float64).reshape(50, 100)
        with SharedArrayPool() as pool:
            desc = pool.put_array(arr)
            assert desc.dtype == arr.dtype.str
            assert desc.shape == (50, 100)
            out = attach_array(desc)
            assert np.array_equal(out, arr)
            assert not out.flags.writeable  # zero-copy views are RO
            del out
            sharedmem.detach_segments()

    def test_zero_length_array_needs_no_segment(self):
        with SharedArrayPool() as pool:
            desc = pool.put_array(np.empty((0, 3), dtype=np.int32))
            assert desc.segment == ""
            out = attach_array(desc)
            assert out.shape == (0, 3)
            assert pool.segment_names == []

    def test_object_dtype_rejected(self):
        with SharedArrayPool() as pool:
            with pytest.raises(TypeError, match="object-dtype"):
                pool.put_array(np.array([{"a": 1}], dtype=object))

    def test_small_buffers_pack_into_one_slab(self):
        with SharedArrayPool(slab_bytes=1 << 20) as pool:
            descs = [
                pool.put_array(np.arange(100, dtype=np.int64))
                for _ in range(10)
            ]
            assert len({d.segment for d in descs}) == 1
            # 64-byte alignment between packed buffers.
            assert all(d.offset % 64 == 0 for d in descs)

    def test_oversized_buffer_gets_dedicated_segment(self):
        with SharedArrayPool(slab_bytes=4096) as pool:
            small = pool.put_array(np.arange(8, dtype=np.int8))
            big = pool.put_array(np.zeros(10000, dtype=np.int8))
            assert small.segment != big.segment
            assert big.offset == 0

    def test_bytes_used_accounting(self):
        with SharedArrayPool() as pool:
            pool.put_array(np.zeros(1000, dtype=np.float64))
            assert pool.bytes_used == 8000

    def test_unlink_destroys_segments(self):
        pool = SharedArrayPool()
        pool.put_array(np.arange(10))
        names = pool.segment_names
        assert names
        pool.unlink()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=names[0])

    def test_context_manager_unlinks_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedArrayPool() as pool:
                pool.put_array(np.arange(100))
                raise RuntimeError("boom")
        assert sharedmem.active_segments() == []

    def test_finalizer_reclaims_leaked_pool(self):
        pool = SharedArrayPool()
        pool.put_array(np.arange(100))
        assert sharedmem.active_segments()
        del pool  # no explicit unlink: the GC safety net must fire
        import gc

        gc.collect()
        assert sharedmem.active_segments() == []

    def test_rejects_bad_slab_bytes(self):
        with pytest.raises(ValueError, match="slab_bytes"):
            SharedArrayPool(slab_bytes=0)


class TestDumpsLoads:
    def test_round_trip_mixed_payload(self):
        obj = {
            "big": np.arange(100_000, dtype=np.float64),
            "small": np.arange(4),
            "meta": ("label", 7),
        }
        with SharedArrayPool() as pool:
            payload = pool.dumps(obj)
            assert isinstance(payload, ShmPayload)
            # Only the big array cleared MIN_SHARED_BYTES.
            assert len(payload.buffers) == 1
            assert len(payload.data) < 2000
            out = shm_loads(payload)
            assert np.array_equal(out["big"], obj["big"])
            assert np.array_equal(out["small"], obj["small"])
            assert out["meta"] == ("label", 7)
            assert not out["big"].flags.writeable
            del out
            sharedmem.detach_segments()

    def test_copy_true_materializes_owned_bytes(self):
        arr = np.arange(100_000, dtype=np.float64)
        with SharedArrayPool() as pool:
            payload = pool.dumps({"x": arr})
            out = shm_loads(payload, copy=True)
        # Pool unlinked; the copied result must stay valid and mutable.
        assert np.array_equal(out["x"], arr)
        out["x"][0] = -1.0

    def test_non_payload_passes_through(self):
        assert shm_loads([1, 2, 3]) == [1, 2, 3]
        assert shm_loads(None) is None

    def test_min_bytes_threshold(self):
        arr = np.arange(1000, dtype=np.float64)  # 8 KB
        with SharedArrayPool() as pool:
            inband = pool.dumps({"x": arr})
            assert inband.buffers == ()
            offband = pool.dumps({"x": arr}, min_bytes=1024)
            assert len(offband.buffers) == 1

    def test_bit_identical_to_plain_pickle(self):
        """The transport is an encoding, not a transformation."""
        rng = np.random.default_rng(7)
        obj = {"a": rng.random(50_000), "b": rng.integers(0, 9, 20_000)}
        with SharedArrayPool() as pool:
            via_shm = shm_loads(pool.dumps(obj), copy=True)
        via_pickle = pickle.loads(pickle.dumps(obj, protocol=5))
        assert np.array_equal(via_shm["a"], via_pickle["a"])
        assert np.array_equal(via_shm["b"], via_pickle["b"])


class TestResultEncoding:
    def test_small_results_stay_plain(self):
        values = [1.5, (2, "x"), {"k": 3}]
        assert maybe_shm_dumps(values) is values

    def test_large_results_offload_and_decode(self):
        values = [np.arange(50_000, dtype=np.float64), "tag"]
        payload = maybe_shm_dumps(values)
        assert isinstance(payload, ShmPayload)
        out = decode_result(payload)
        assert np.array_equal(out[0], values[0])
        assert out[1] == "tag"
        # decode_result released the worker segments.
        assert sharedmem.active_segments() == []

    def test_decode_passes_plain_through(self):
        assert decode_result([1, 2]) == [1, 2]

    def test_release_payload_idempotent(self):
        payload = maybe_shm_dumps([np.arange(50_000, dtype=np.float64)])
        release_payload(payload)
        release_payload(payload)  # second release must not raise
        assert sharedmem.active_segments() == []

    def test_unpicklable_results_fall_back_to_plain(self):
        values = [lambda x: x, np.arange(50_000, dtype=np.float64)]
        assert maybe_shm_dumps(values) is values
        assert sharedmem.active_segments() == []


class TestDescriptor:
    def test_nbytes(self):
        desc = ArrayDescriptor(
            segment="s", dtype="<f8", shape=(10, 20), offset=0
        )
        assert desc.nbytes == 1600

    def test_descriptors_are_tiny_on_the_wire(self):
        desc = ArrayDescriptor(
            segment="repro-shm-12345-1", dtype="<f8",
            shape=(1000, 1000), offset=64,
        )
        assert len(pickle.dumps(desc)) < 200
