"""Zero-copy export of :class:`CompiledDG` snapshots over shared memory.

The compiled engine (:mod:`repro.core.compiled`) already stores the whole
index as a handful of contiguous numpy arrays.  That makes cross-process
serving almost free: pack every array into one
:mod:`multiprocessing.shared_memory` segment, describe the layout with a
small picklable :class:`SnapshotHandle`, and let worker processes rebuild
the *same* ``CompiledDG`` — same bytes, zero copies — by mapping the
segment and viewing slices of it.

Lifecycle
---------
Exactly one process — the creator — owns a segment:

- :func:`export_snapshot` creates the segment, copies the arrays in once,
  and returns a :class:`SharedSnapshot` whose :meth:`SharedSnapshot.destroy`
  closes **and unlinks** it.  A ``weakref.finalize`` backstop destroys the
  segment even if the owner forgets, so dropping the last reference can
  never leak ``/dev/shm`` entries.
- :func:`attach_snapshot` (called in workers) maps an existing segment
  read-only and returns an :class:`AttachedSnapshot`; its ``close``
  drops the mapping but never unlinks.  Attachments bypass CPython's
  register-on-attach (bpo-39959) entirely — only the owner's
  create-time registration and unlink-time unregistration ever reach
  the resource tracker, so its ledger stays race-free.

POSIX keeps an unlinked segment alive until the last mapping closes, so
the owner may unlink immediately after publishing a replacement; workers
finish in-flight queries on the old mapping and drop it at their own pace.

Segment names carry the :data:`SEGMENT_PREFIX` prefix so tests (and
operators) can audit ``/dev/shm`` for leaks with a single glob.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.core.compiled import SNAPSHOT_FIELDS, CompiledDG

#: Every segment this module creates is named ``repro-dg-<pid>-<nonce>``.
SEGMENT_PREFIX = "repro-dg-"

#: Array starts are rounded up to this many bytes inside the segment.
ALIGNMENT = 64

#: CompiledDG array attributes serialized into the segment, in layout
#: order — the snapshot's own field list, not a copy of it.
ARRAY_FIELDS = SNAPSHOT_FIELDS


@dataclass(frozen=True)
class ArraySpec:
    """Location and type of one flat array inside a shared segment."""

    field: str
    dtype: str
    shape: tuple
    offset: int


@dataclass(frozen=True)
class SnapshotHandle:
    """Picklable description of a shared snapshot.

    Ship this to worker processes; :func:`attach_snapshot` turns it back
    into a read-only :class:`CompiledDG` without copying any array data.
    """

    segment: str
    arrays: tuple
    first_layer_size: int
    epoch: int
    total_bytes: int


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _plan_layout(compiled: CompiledDG) -> "tuple[tuple[ArraySpec, ...], int]":
    """Compute per-array offsets and the total segment size."""
    specs = []
    cursor = 0
    for name in ARRAY_FIELDS:
        array = getattr(compiled, name)
        cursor = _aligned(cursor)
        specs.append(
            ArraySpec(
                field=name,
                dtype=array.dtype.str,
                shape=tuple(int(s) for s in array.shape),
                offset=cursor,
            )
        )
        cursor += int(array.nbytes)
    return tuple(specs), max(cursor, 1)


def _view(buffer: memoryview, spec: ArraySpec) -> np.ndarray:
    """A numpy view of one array inside a mapped segment (no copy)."""
    dtype = np.dtype(spec.dtype)
    count = 1
    for dim in spec.shape:
        count *= dim
    flat = np.frombuffer(buffer, dtype=dtype, count=count, offset=spec.offset)
    return flat.reshape(spec.shape)


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment; tolerates both already being done."""
    try:
        shm.close()
    except BufferError:
        # A live numpy view still points into the mapping; leave it
        # mapped (the unlink below still removes the name) rather than
        # crash the owner.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedSnapshot:
    """Owner-side handle for a snapshot exported to shared memory.

    Create via :func:`export_snapshot`.  The owner must eventually call
    :meth:`destroy` (or let garbage collection trigger the finalizer
    backstop) to unlink the segment; worker attachments never unlink.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: SnapshotHandle
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._finalizer = weakref.finalize(self, _destroy_segment, shm)

    @property
    def segment(self) -> str:
        """The ``/dev/shm`` segment name."""
        return self.handle.segment

    @property
    def destroyed(self) -> bool:
        """True once the segment has been closed and unlinked."""
        return not self._finalizer.alive

    def destroy(self) -> None:
        """Close and unlink the segment.  Idempotent.

        Attached workers keep their mappings until they close them; the
        name disappears from ``/dev/shm`` immediately.
        """
        # finalize() runs the callback at most once, making repeated
        # destroy() calls and the GC backstop mutually safe.
        self._finalizer()

    def __enter__(self) -> "SharedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.destroy()

    def __repr__(self) -> str:
        return (
            f"SharedSnapshot(segment={self.segment!r}, "
            f"epoch={self.handle.epoch}, "
            f"bytes={self.handle.total_bytes}, destroyed={self.destroyed})"
        )


def export_snapshot(
    compiled: CompiledDG, *, epoch: int = 0
) -> SharedSnapshot:
    """Copy a compiled snapshot into a fresh shared-memory segment.

    The one copy happens here, in the owner; every worker that attaches
    afterwards reads the same physical pages.  ``epoch`` is stamped into
    the handle so workers can tag results with the snapshot generation
    they answered from.
    """
    specs, total = _plan_layout(compiled)
    while True:
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=total
            )
            break
        except FileExistsError:
            continue
    for spec in specs:
        source = getattr(compiled, spec.field)
        if source.size:
            _view(shm.buf, spec)[...] = source
    handle = SnapshotHandle(
        segment=name,
        arrays=specs,
        first_layer_size=compiled.first_layer_size,
        epoch=epoch,
        total_bytes=total,
    )
    return SharedSnapshot(shm, handle)


def _release_mapping(shm: shared_memory.SharedMemory) -> None:
    """Drop a worker's mapping without unlinking the segment name."""
    try:
        shm.close()
    except BufferError:
        # A view outlived the attachment; keep the mapping rather than
        # crash — the segment is reclaimed when the process exits.
        pass


class AttachedSnapshot:
    """Worker-side view of a shared snapshot.

    ``compiled`` is a fully functional read-only :class:`CompiledDG`
    whose arrays are views straight into the shared segment — queries on
    it never copy the index.  Close when switching to a newer epoch; the
    segment itself belongs to the exporting process.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        compiled: CompiledDG,
        epoch: int,
    ) -> None:
        self._shm = shm
        self._compiled: Optional[CompiledDG] = compiled
        self.epoch = epoch
        self._finalizer = weakref.finalize(self, _release_mapping, shm)

    @property
    def compiled(self) -> CompiledDG:
        """The mapped snapshot; raises after :meth:`close`."""
        if self._compiled is None:
            raise ValueError("snapshot attachment is closed")
        return self._compiled

    @property
    def closed(self) -> bool:
        """True once the mapping has been released."""
        return self._compiled is None

    def close(self) -> None:
        """Release the mapping (drops the array views first).  Idempotent."""
        self._compiled = None
        self._finalizer()

    def __enter__(self) -> "AttachedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AttachedSnapshot(segment={self._shm.name!r}, "
            f"epoch={self.epoch}, closed={self.closed})"
        )


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without resource-tracker registration.

    CPython's register-on-attach (bpo-39959) is wrong for the fabric in
    both fork topologies it can create: forked workers share the owner's
    tracker process, so a slow worker's register message can arrive
    *after* the owner's unlink-time unregister and strand a phantom
    entry (exit-time "leaked shared_memory" warnings); a spawn attacher
    would get its own tracker and unlink the owner's live segment on
    exit.  The owner's create-time registration already guarantees
    crash cleanup, so attachments simply opt out — the patch only
    affects this thread for the duration of the constructor call.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = _skip
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_snapshot(handle: SnapshotHandle) -> AttachedSnapshot:
    """Map an exported snapshot in the current process, read-only.

    The mapping is deliberately invisible to the resource tracker (see
    :func:`_attach_untracked`): the exporting process both registers the
    segment at create time and unregisters it at unlink time, so the
    tracker sees one balanced pair from a single writer and attachments
    can never race it into phantom-leak warnings or premature unlinks.
    """
    shm = _attach_untracked(handle.segment)
    arrays = {spec.field: _view(shm.buf, spec) for spec in handle.arrays}
    compiled = CompiledDG.from_arrays(
        arrays, first_layer_size=handle.first_layer_size
    )
    return AttachedSnapshot(shm, compiled, handle.epoch)


def leaked_segments() -> "list[str]":
    """Names of ``repro-dg-*`` segments currently present in ``/dev/shm``.

    Test/diagnostic helper: after an executor shuts down this must be
    empty (modulo segments owned by *other* live executors).
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(
        entry
        for entry in os.listdir(shm_dir)
        if entry.startswith(SEGMENT_PREFIX)
    )
