"""Shard transport: how numpy array bundles cross the process boundary.

The multiprocess fleet (:mod:`repro.parallel.fleet`) ships two payloads per
run: the packed per-job arrays every worker reads (arrival offsets, per-tier
byte and second columns) and the per-job result arrays the workers produce
(cloud arrival times plus the stage service-start tie chain).  The arrays
are flat, fixed-dtype and known-size, which is exactly the payload
``multiprocessing.shared_memory`` moves for free; serialising them through
the process pool's pickle channel costs one copy to encode and one to
decode, per worker.

There are two transports and :func:`pick_transport` chooses between them
from what the platform offers — it is not a setting:

* :class:`SharedMemoryTransport` packs a bundle of named arrays into one
  shared-memory segment; the :class:`ShardHandle` that crosses the pickle
  boundary carries only the segment name and the array specs (a few hundred
  bytes regardless of fleet size).  Workers attach and read zero-copy
  views.  Result bundles are *allocated* by the parent and written in place
  by the workers — each worker owns disjoint row slots, so no locking is
  needed and a crashed worker's partial writes are simply recomputed.
* :class:`PickleTransport` carries the same bundle inline in the handle,
  through the pool's pickle channel.  It is what runs where shared-memory
  segments cannot be created (restricted sandboxes with no writable
  ``/dev/shm``).

Lifecycle: segments are owned by the *creating* process.  Transports track
every segment they created and :meth:`ShardTransport.cleanup` unlinks them
all; a transport is a context manager wrapping that, and a module
``atexit`` hook sweeps anything a hard crash left behind.  Workers only
ever ``close()`` their attachment (dropping a mapping), never ``unlink``
— so a worker killed mid-simulation (the ``WorkerKill`` fault, an OOM
kill) cannot leak a segment: the parent's cleanup runs either way.  The
lifecycle contract is pinned by ``tests/parallel/test_shm_lifecycle.py``.
"""

from __future__ import annotations

import atexit
import os
import uuid
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ArraySpec", "ShardHandle", "ShardTransport", "PickleTransport",
    "SharedMemoryTransport", "pick_transport", "open_handle",
    "shm_available", "active_segment_names",
]

#: Prefix of every shared-memory segment this library creates.  Segment
#: names embed the creating PID so leak checks (and the atexit sweep) can
#: tell this run's segments from a concurrent run's.
SEGMENT_PREFIX = "repro_shm"

#: Segments created by this process and not yet unlinked.
_ACTIVE_SEGMENTS: Dict[str, object] = {}


def _shared_memory_module():
    """The ``multiprocessing.shared_memory`` module, or ``None``."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython 3.8+
        return None
    return shared_memory


def shm_available() -> bool:
    """Whether shared-memory segments can actually be created here.

    Probes by creating (and immediately unlinking) a tiny segment: the
    module can import fine in sandboxes whose ``/dev/shm`` is unwritable,
    and the only reliable signal is the attempt itself.
    """
    shared_memory = _shared_memory_module()
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, PermissionError, ValueError):
        return False
    try:
        probe.close()
        probe.unlink()
    except (OSError, PermissionError):  # pragma: no cover - probe cleanup
        pass
    return True


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one named array inside a segment.

    Attributes:
        name: Array name within the bundle.
        dtype: Numpy dtype string (``"float64"``, ``"int64"``, ...).
        shape: Array shape.
        offset: Byte offset of the array's data inside the segment.
    """

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        """Size of the array's data in bytes."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class ShardHandle:
    """The picklable token standing in for one published array bundle.

    For the shared-memory transport the handle carries only the segment
    name and the specs; for the pickle transport it carries the arrays
    themselves (``inline``), which ride the pool channel with it.

    Attributes:
        kind: ``"shm"`` or ``"pickle"``.
        segment: Shared-memory segment name (``""`` for inline handles).
        specs: Layout of the bundled arrays.
        inline: The arrays themselves (inline handles only).
    """

    kind: str
    segment: str
    specs: Tuple[ArraySpec, ...]
    inline: Optional[Dict[str, np.ndarray]] = None

    @property
    def is_inline(self) -> bool:
        """Whether the payload rides inside the handle (pickle transport)."""
        return self.inline is not None

    @property
    def nbytes(self) -> int:
        """Total payload bytes across the bundle."""
        return sum(spec.nbytes for spec in self.specs)


class ShardTransport:
    """Moves named numpy array bundles between the parent and its workers.

    :func:`pick_transport` constructs the right concrete transport; the
    base class implements the inline/pickle behaviour and the lifecycle
    bookkeeping.  Use it as a context manager so cleanup always runs, even
    on pool crashes.
    """

    kind = "pickle"

    def publish(self, arrays: Mapping[str, np.ndarray]) -> ShardHandle:
        """Make a read-only bundle available to workers."""
        packed = {name: np.ascontiguousarray(array)
                  for name, array in arrays.items()}
        specs = tuple(ArraySpec(name=name, dtype=str(array.dtype),
                                shape=tuple(array.shape), offset=0)
                      for name, array in packed.items())
        return ShardHandle(kind=self.kind, segment="", specs=specs,
                           inline=packed)

    def allocate(self, specs: Mapping[str, Tuple[str, Tuple[int, ...]]]
                 ) -> ShardHandle:
        """Allocate a zero-filled writable bundle (``{name: (dtype, shape)}``).

        Under shared memory the workers write their slots in place and the
        parent reads them back through :meth:`attach`; under the pickle
        transport there is no shared backing store, so workers must return
        their slices through the pool channel instead (the caller handles
        both cases — see :meth:`is_shared`).
        """
        arrays = {name: np.zeros(shape, dtype=dtype)
                  for name, (dtype, shape) in specs.items()}
        return self.publish(arrays)

    @property
    def is_shared(self) -> bool:
        """Whether workers' writes into an allocated bundle reach the parent."""
        return False

    def attach(self, handle: ShardHandle) -> Dict[str, np.ndarray]:
        """The parent-side view of a bundle it published or allocated."""
        if handle.inline is None:
            raise ConfigurationError(
                f"cannot attach a {handle.kind!r} handle inline")
        return dict(handle.inline)

    def cleanup(self) -> None:
        """Release every resource this transport created (idempotent)."""

    def __enter__(self) -> "ShardTransport":
        return self

    def __exit__(self, *_: object) -> None:
        self.cleanup()


class PickleTransport(ShardTransport):
    """Bundles ride the pool's pickle channel inside their handles."""


class SharedMemoryTransport(ShardTransport):
    """Bundles live in shared-memory segments; handles carry only names.

    The transport owns every segment it creates and unlinks them all in
    :meth:`cleanup` — callers wrap runs in ``with`` (or a try/finally) so
    a crashed pool, a failed replay or an injected worker kill still
    releases the segments.
    """

    kind = "shm"

    def __init__(self) -> None:
        shared_memory = _shared_memory_module()
        if shared_memory is None:  # pragma: no cover - CPython always has it
            raise ConfigurationError("multiprocessing.shared_memory missing")
        self._shared_memory = shared_memory
        self._segments: Dict[str, object] = {}

    def _create_segment(self, size: int):
        name = (f"{SEGMENT_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:12]}")
        segment = self._shared_memory.SharedMemory(
            name=name, create=True, size=max(int(size), 1))
        self._segments[segment.name] = segment
        _ACTIVE_SEGMENTS[segment.name] = segment
        return segment

    def _pack(self, arrays: Mapping[str, np.ndarray],
              copy_values: bool) -> ShardHandle:
        specs = []
        offset = 0
        contiguous = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous[name] = array
            specs.append(ArraySpec(name=name, dtype=str(array.dtype),
                                   shape=tuple(array.shape), offset=offset))
            offset += array.nbytes
        segment = self._create_segment(offset)
        for spec, array in zip(specs, contiguous.values()):
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=segment.buf, offset=spec.offset)
            if copy_values:
                view[...] = array
            else:
                view[...] = 0
        return ShardHandle(kind=self.kind, segment=segment.name,
                           specs=tuple(specs))

    def publish(self, arrays: Mapping[str, np.ndarray]) -> ShardHandle:
        return self._pack(arrays, copy_values=True)

    def allocate(self, specs: Mapping[str, Tuple[str, Tuple[int, ...]]]
                 ) -> ShardHandle:
        arrays = {name: np.empty(shape, dtype=dtype)
                  for name, (dtype, shape) in specs.items()}
        return self._pack(arrays, copy_values=False)

    @property
    def is_shared(self) -> bool:
        return True

    def attach(self, handle: ShardHandle) -> Dict[str, np.ndarray]:
        segment = self._segments.get(handle.segment)
        if segment is None:
            raise ConfigurationError(
                f"segment {handle.segment!r} is not owned by this transport")
        return {spec.name: np.ndarray(spec.shape, dtype=spec.dtype,
                                      buffer=segment.buf, offset=spec.offset)
                for spec in handle.specs}

    def cleanup(self) -> None:
        for name, segment in list(self._segments.items()):
            _release_segment(segment)
            self._segments.pop(name, None)
            _ACTIVE_SEGMENTS.pop(name, None)


def pick_transport() -> ShardTransport:
    """Shared memory where segments can be created, else the pickle channel.

    Reports are bit-identical either way — a transport moves bytes, never
    changes them — so which one runs is a fact about the platform
    (:func:`shm_available`), not a choice anyone has to make.
    """
    return SharedMemoryTransport() if shm_available() else PickleTransport()


@dataclass
class _WorkerAttachment:
    """Worker-side attachment to a handle (closes mappings on exit)."""

    arrays: Dict[str, np.ndarray]
    _segment: object = None
    closed: bool = field(default=False)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Views into the buffer must be dropped before the mapping closes;
        # clearing the dict releases the exported pointers.
        self.arrays.clear()
        if self._segment is not None:
            try:
                self._segment.close()
            except (OSError, BufferError):  # pragma: no cover - teardown
                pass

    def __enter__(self) -> Dict[str, np.ndarray]:
        return self.arrays

    def __exit__(self, *_: object) -> None:
        self.close()


def open_handle(handle: ShardHandle) -> _WorkerAttachment:
    """Open a bundle on the worker side of the pool boundary.

    Returns a context manager yielding ``{name: array}``.  Inline handles
    yield the arrays that rode the pickle channel; shared-memory handles
    attach the segment and yield zero-copy views (writes to an allocated
    bundle's views land in the parent's memory).  The attachment must be
    closed (the ``with`` block exiting) before the worker returns.
    """
    if handle.inline is not None:
        return _WorkerAttachment(arrays=dict(handle.inline))
    shared_memory = _shared_memory_module()
    if shared_memory is None:  # pragma: no cover - CPython always has it
        raise ConfigurationError("multiprocessing.shared_memory missing")
    segment = shared_memory.SharedMemory(name=handle.segment)
    arrays = {spec.name: np.ndarray(spec.shape, dtype=spec.dtype,
                                    buffer=segment.buf, offset=spec.offset)
              for spec in handle.specs}
    return _WorkerAttachment(arrays=arrays, _segment=segment)


def active_segment_names() -> Tuple[str, ...]:
    """Names of segments created by this process and not yet unlinked.

    The SHM-lifecycle tests assert this is empty after every fleet run —
    normal exit, broken pool and injected worker kill alike.
    """
    return tuple(sorted(_ACTIVE_SEGMENTS))


def _release_segment(segment: object) -> None:
    """Unlink (then close) one segment, tolerating live exported views.

    Unlink runs *first*: removing the ``/dev/shm`` entry never requires the
    local mapping to be closed, so a caller still holding numpy views into
    the segment (which makes ``close()`` raise ``BufferError``) cannot turn
    a cleanup into a leak — the mapping itself is released when the last
    view is garbage-collected.
    """
    try:
        segment.unlink()
    except (OSError, PermissionError):  # pragma: no cover - already gone
        pass
    try:
        segment.close()
    except (OSError, PermissionError, BufferError):
        pass


def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for name, segment in list(_ACTIVE_SEGMENTS.items()):
        _release_segment(segment)
        _ACTIVE_SEGMENTS.pop(name, None)


atexit.register(_cleanup_at_exit)
