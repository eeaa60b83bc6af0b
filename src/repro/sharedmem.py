"""Zero-copy shared-memory transport for sweep payloads.

:func:`repro.parallel.sweep_map` ships every task chunk to its workers
through a pickle pipe.  After the stacked rewrite (PR 7) those chunks
carry large numpy blocks — CSR ``link_ids``/``offsets`` planes,
capacity/fault planes, stacked result rows — and copying megabytes
through the pipe per dispatch is exactly the avoidable-contention
pattern the reproduced paper warns about at the fabric level: the
payload crosses the parent/worker boundary twice (serialize +
deserialize) when it only needs to cross zero times.

This module provides the zero-copy alternative:

* :class:`SharedArrayPool` packs array buffers into a small number of
  named ``multiprocessing.shared_memory`` slab segments and returns
  tiny :class:`ArrayDescriptor` records (segment name, dtype, shape,
  byte offset) instead;
* :meth:`SharedArrayPool.dumps` pickles an arbitrary task payload with
  pickle protocol 5, diverting every large buffer out-of-band into the
  pool, so what crosses the pipe is a small control stream plus
  descriptors;
* :func:`shm_loads` reconstructs the payload in the worker with the
  buffers mapped **read-only, zero-copy** straight out of the shared
  segments;
* classes that register a codec (:func:`register_shared_codec`; see
  ``PathMatrix.to_shared`` / ``StackedPathMatrix.from_shared``) are
  reduced to their descriptor form explicitly, skipping both the byte
  copy *and* their constructors' O(entries) revalidation on the worker
  side.

Lifecycle discipline
--------------------

Segments are owned by exactly one side.  A parent-owned pool
(``SharedArrayPool()``) unlinks its segments when the sweep finishes
(or, via a pid-guarded finalizer, when the pool is garbage collected —
a crashed sweep must not leak ``/dev/shm`` entries).  Worker-side
result payloads (:func:`maybe_shm_dumps`) use non-owning pools: the
worker closes its mapping and the *parent* unlinks the segments after
materializing the results (:func:`decode_result` copies them out — a
checkpoint must journal contents, never segment names).

``REPRO_SHM=0`` disables the transport everywhere (the pickle pipe is
the oracle); platforms without a usable ``shared_memory``
implementation degrade to pickle automatically.
"""

from __future__ import annotations

import io
import os
import pickle
import warnings
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import env

__all__ = [
    "ArrayDescriptor",
    "ShmPayload",
    "SharedArrayPool",
    "shm_loads",
    "maybe_shm_dumps",
    "decode_result",
    "attach_array",
    "detach_segments",
    "release_payload",
    "register_shared_codec",
    "shm_enabled",
    "shm_supported",
    "resolve_transport",
    "active_segments",
    "SEGMENT_PREFIX",
    "MIN_SHARED_BYTES",
]

#: Environment knob: ``REPRO_SHM=0`` disables the shared-memory
#: transport, forcing the classic pickle pipe (the transport oracle).
_SHM_ENV = "REPRO_SHM"

#: Prefix of every segment name this module creates; the leak-checking
#: test fixture (and :func:`active_segments`) key off it.
SEGMENT_PREFIX = "repro-shm-"

#: Buffers smaller than this stay in-band: a descriptor plus a page
#: fault costs more than pickling a few KiB.
MIN_SHARED_BYTES = 64 * 1024

#: Slab segment size; buffers are packed at 64-byte alignment and a
#: buffer larger than a slab gets a dedicated segment.
_SLAB_BYTES = 8 * 1024 * 1024

_ALIGN = 64


def shm_enabled() -> bool:
    """Whether the shared-memory transport is enabled.

    Reads ``REPRO_SHM`` at call time; any of ``0``, ``false``, ``no``,
    ``off`` (case-insensitive) disables it.
    """
    return env.get_flag(_SHM_ENV)


_SUPPORTED: bool | None = None


def shm_supported() -> bool:
    """Whether ``multiprocessing.shared_memory`` actually works here.

    Probes once per process by creating (and immediately unlinking) a
    tiny segment — import success alone does not guarantee a usable
    ``/dev/shm`` in restricted sandboxes.
    """
    global _SUPPORTED
    if _SUPPORTED is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.close()
            seg.unlink()
            _SUPPORTED = True
        except Exception:
            _SUPPORTED = False
    return _SUPPORTED


def resolve_transport(transport: str | None) -> str:
    """Normalize a transport request to ``"shm"`` or ``"pickle"``.

    ``None``/``"auto"`` follows ``REPRO_SHM`` and platform support;
    ``"shm"`` degrades (with a warning) when unsupported; ``"pickle"``
    always honors the request.
    """
    if transport in (None, "auto"):
        return "shm" if shm_enabled() and shm_supported() else "pickle"
    if transport == "shm":
        if not shm_supported():
            warnings.warn(
                "shared-memory transport requested but "
                "multiprocessing.shared_memory is unusable here; "
                "falling back to pickle",
                RuntimeWarning,
                stacklevel=2,
            )
            return "pickle"
        return "shm"
    if transport == "pickle":
        return "pickle"
    raise ValueError(
        f"transport must be 'auto', 'shm', or 'pickle', got {transport!r}"
    )


@dataclass(frozen=True)
class ArrayDescriptor:
    """Zero-copy handle to an array living in a shared segment.

    A few dozen bytes on the wire regardless of the array's size:
    workers rebuild a read-only :class:`numpy.ndarray` view over the
    named segment instead of unpickling the data.
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


@dataclass(frozen=True)
class ShmPayload:
    """A pickled object whose large buffers live in shared segments.

    ``data`` is the protocol-5 control stream (small); ``buffers`` are
    the out-of-band buffer descriptors in pickling order, as required
    by ``pickle.loads(..., buffers=...)``.
    """

    data: bytes
    buffers: tuple[ArrayDescriptor, ...]


# ----------------------------------------------------------------------
# Attach-side cache
#
# A worker decodes many payloads against the same few slab segments;
# re-mapping the segment per array would defeat the point.  The cache
# maps segment name -> SharedMemory handle and is cleared by the pool
# initializer (fresh worker) and by release_payload (parent side).

_ATTACHED: dict[str, Any] = {}


def _attach(name: str):
    seg = _ATTACHED.get(name)
    if seg is None:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = seg
    return seg


def detach_segments() -> None:
    """Close every cached segment mapping (worker/test hygiene).

    A mapping whose buffer is still exported (zero-copy arrays alive
    somewhere) cannot close yet; it stays cached rather than dangling
    half-closed until garbage collection complains.
    """
    still_exported: dict[str, Any] = {}
    for name, seg in _ATTACHED.items():
        try:
            seg.close()
        except BufferError:
            still_exported[name] = seg
        except Exception:  # pragma: no cover - close is best-effort
            pass
    _ATTACHED.clear()
    _ATTACHED.update(still_exported)


def _attach_view(desc: ArrayDescriptor) -> memoryview:
    view = _attach(desc.segment).buf[
        desc.offset : desc.offset + desc.nbytes
    ]
    return view.toreadonly()


def attach_array(desc: ArrayDescriptor) -> np.ndarray:
    """Read-only zero-copy ndarray over *desc*'s shared bytes."""
    dtype = np.dtype(desc.dtype)
    if desc.segment == "":
        return np.empty(desc.shape, dtype=dtype)
    return np.frombuffer(_attach_view(desc), dtype=dtype).reshape(
        desc.shape
    )


# ----------------------------------------------------------------------
# Shared codecs
#
# Types that know how to describe themselves as descriptors (PathMatrix,
# StackedPathMatrix) register here; the pool's pickler reduces them to
# ``cls.from_shared(handles)`` so the worker-side rebuild skips both the
# byte copy and the constructor's O(entries) validation.

_SHARED_CODECS: set[type] = set()


def register_shared_codec(cls: type) -> None:
    """Register *cls* (with ``to_shared``/``from_shared``) for
    descriptor-form transport through :meth:`SharedArrayPool.dumps`."""
    if not hasattr(cls, "to_shared") or not hasattr(cls, "from_shared"):
        raise TypeError(
            f"{cls.__name__} must define to_shared/from_shared to be a "
            f"shared codec"
        )
    _SHARED_CODECS.add(cls)


class _ShmPickler(pickle.Pickler):
    """Protocol-5 pickler diverting large buffers into a pool."""

    def __init__(
        self,
        file: io.BytesIO,
        pool: "SharedArrayPool",
        min_bytes: int,
        codecs: bool,
    ):
        super().__init__(
            file, protocol=5, buffer_callback=self._buffer_cb
        )
        self._pool = pool
        self._min_bytes = min_bytes
        self._codecs = codecs
        self.descriptors: list[ArrayDescriptor] = []

    def _buffer_cb(self, pbuf: pickle.PickleBuffer) -> bool:
        try:
            raw = pbuf.raw()
        except BufferError:
            return True  # non-contiguous: keep in-band
        if raw.nbytes < self._min_bytes:
            return True
        self.descriptors.append(self._pool.put_buffer(raw))
        return False  # out-of-band: worker reads it from the segment

    def reducer_override(self, obj: Any):
        if self._codecs and type(obj) in _SHARED_CODECS:
            return (
                type(obj).from_shared,
                (obj.to_shared(self._pool),),
            )
        return NotImplemented


# ----------------------------------------------------------------------
# The pool


def _cleanup_segments(segments: list[Any], pid: int) -> None:
    """Finalizer: unlink leftover segments, but only in the creating
    process — a forked worker inheriting the pool object must never
    destroy segments the parent still serves."""
    if os.getpid() != pid:
        return
    for seg in segments:
        try:
            seg.close()
        except Exception:  # pragma: no cover - cleanup is best-effort
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - cleanup is best-effort
            pass
    segments.clear()


class SharedArrayPool:
    """Packs array buffers into named shared-memory slab segments.

    Parameters
    ----------
    slab_bytes:
        Segment granularity; buffers pack into the current slab at
        64-byte alignment, oversized buffers get a dedicated segment.
    owner:
        ``True`` (parent side): the pool unlinks its segments on
        :meth:`unlink`, and a pid-guarded finalizer unlinks them on
        garbage collection as a crash safety net.  ``False`` (worker
        result payloads): the pool only ever closes its own mappings —
        the *reader* unlinks via :func:`release_payload`.
    """

    _seq = 0

    def __init__(
        self, slab_bytes: int = _SLAB_BYTES, *, owner: bool = True
    ):
        if slab_bytes <= 0:
            raise ValueError(f"slab_bytes must be positive, got {slab_bytes}")
        self._slab_bytes = slab_bytes
        self._segments: list[Any] = []
        self._cursor = 0  # free offset in the last segment
        self._owner = owner
        self.bytes_used = 0
        self._finalizer = (
            weakref.finalize(
                self, _cleanup_segments, self._segments, os.getpid()
            )
            if owner
            else None
        )

    # -- allocation --------------------------------------------------

    def _new_segment(self, size: int):
        from multiprocessing import shared_memory

        while True:
            SharedArrayPool._seq += 1
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{SharedArrayPool._seq}"
            try:
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except FileExistsError:  # pragma: no cover - stale name
                continue
            self._segments.append(seg)
            self._cursor = 0
            return seg

    def _alloc(self, nbytes: int) -> tuple[Any, int]:
        """A (segment, offset) span of *nbytes* writable bytes."""
        if nbytes > self._slab_bytes:
            return self._new_segment(nbytes), 0
        aligned = -(-self._cursor // _ALIGN) * _ALIGN
        if not self._segments or aligned + nbytes > self._segments[-1].size:
            return self._new_segment(self._slab_bytes), 0
        self._cursor = aligned
        return self._segments[-1], aligned

    def put_buffer(self, raw: memoryview) -> ArrayDescriptor:
        """Copy a raw C-contiguous byte buffer into the pool."""
        seg, offset = self._alloc(raw.nbytes)
        dest = seg.buf[offset : offset + raw.nbytes]
        dest[:] = raw
        dest.release()
        self._cursor = offset + raw.nbytes
        self.bytes_used += raw.nbytes
        return ArrayDescriptor(
            segment=seg.name,
            dtype="|u1",
            shape=(raw.nbytes,),
            offset=offset,
        )

    def put_array(self, arr: np.ndarray) -> ArrayDescriptor:
        """Copy *arr* into the pool; returns its zero-copy descriptor.

        The one copy happens here, on the producing side; every reader
        attaches a view.  Object dtypes cannot live in flat shared
        bytes and are rejected.
        """
        arr = np.ascontiguousarray(arr)
        if arr.dtype.hasobject:
            raise TypeError(
                "object-dtype arrays cannot be placed in shared memory"
            )
        if arr.nbytes == 0:
            return ArrayDescriptor(
                segment="", dtype=arr.dtype.str, shape=arr.shape, offset=0
            )
        desc = self.put_buffer(memoryview(arr).cast("B"))
        return ArrayDescriptor(
            segment=desc.segment,
            dtype=arr.dtype.str,
            shape=arr.shape,
            offset=desc.offset,
        )

    # -- codec -------------------------------------------------------

    def dumps(
        self,
        obj: Any,
        min_bytes: int = MIN_SHARED_BYTES,
        *,
        codecs: bool = True,
    ) -> ShmPayload:
        """Pickle *obj* with its large buffers diverted into the pool.

        With ``codecs=True`` registered types additionally travel as
        explicit descriptor handles (see :func:`register_shared_codec`).
        Worker-produced *result* payloads use ``codecs=False`` so the
        parent can always materialize owned copies before the segments
        are unlinked (:func:`decode_result`).
        """
        buf = io.BytesIO()
        pickler = _ShmPickler(buf, self, min_bytes, codecs)
        pickler.dump(obj)
        return ShmPayload(
            data=buf.getvalue(), buffers=tuple(pickler.descriptors)
        )

    # -- lifecycle ---------------------------------------------------

    @property
    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments]

    def close(self) -> None:
        """Close this process's mappings; segments stay alive."""
        for seg in self._segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover
                pass
        if self._finalizer is not None:
            self._finalizer.detach()
        self._segments.clear()

    def unlink(self) -> None:
        """Destroy every segment this pool created (owner side)."""
        for seg in self._segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        if self._finalizer is not None:
            self._finalizer.detach()
        self._segments.clear()

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.unlink() if self._owner else self.close()


def shm_loads(payload: Any, *, copy: bool = False) -> Any:
    """Inverse of :meth:`SharedArrayPool.dumps`.

    Non-payload objects pass through, so call sites need no transport
    branch.  ``copy=False`` maps buffers zero-copy (read-only views
    valid while the segments live); ``copy=True`` materializes owned
    bytes — required before the segments are unlinked.
    """
    if not isinstance(payload, ShmPayload):
        return payload
    buffers: list[Any] = []
    for desc in payload.buffers:
        view = _attach_view(desc)
        buffers.append(bytearray(view) if copy else view)
    return pickle.loads(payload.data, buffers=buffers)


def release_payload(payload: Any) -> None:
    """Unlink every segment backing *payload* (reader side).

    Used by the parent after :func:`decode_result` copied a worker's
    result payload out of shared memory; the worker side never unlinks.
    """
    if not isinstance(payload, ShmPayload):
        return
    from multiprocessing import shared_memory

    for name in {d.segment for d in payload.buffers if d.segment}:
        seg = _ATTACHED.pop(name, None)
        if seg is None:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
        try:
            seg.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            pass


def maybe_shm_dumps(
    values: Any, min_bytes: int = MIN_SHARED_BYTES
) -> Any:
    """Worker-side result encoding: shared segments only when it pays.

    Returns *values* unchanged when no buffer clears *min_bytes* (the
    common case — sweep results are small row records); otherwise a
    :class:`ShmPayload` whose segments the parent must release after
    :func:`decode_result`.  Codec reduction is disabled: results must
    be materializable as owned copies (checkpoints journal contents,
    never segment names).
    """
    if not shm_supported():
        return values
    pool = SharedArrayPool(owner=False)
    try:
        payload = pool.dumps(values, min_bytes, codecs=False)
    except Exception:
        pool.unlink()  # nothing downstream knows these names
        return values
    if not payload.buffers:
        pool.unlink()  # nothing was offloaded; drop any empty slab
        return values
    pool.close()  # parent unlinks via release_payload
    return payload


def decode_result(values: Any) -> Any:
    """Parent-side inverse of :func:`maybe_shm_dumps`.

    Materializes owned copies and unlinks the worker's segments; plain
    (non-payload) results pass through untouched.
    """
    if not isinstance(values, ShmPayload):
        return values
    out = shm_loads(values, copy=True)
    release_payload(values)
    return out


# ----------------------------------------------------------------------
# Leak accounting (test support)


def active_segments() -> list[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    Empty on platforms without a visible ``/dev/shm``; the leak-check
    fixtures skip there.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(
        p.name
        for p in shm_dir.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
    )
