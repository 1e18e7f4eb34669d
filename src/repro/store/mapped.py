"""Zero-copy, read-only ``mmap`` serving of store files.

:class:`MappedStore` maps a verified ``.dgs`` file and exposes each
section as a read-only numpy view straight into the page cache — no
section bytes are read until a query touches them, and N processes
mapping the same file share one physical copy (the same property the
shared-memory fabric gets from ``/dev/shm``, now with durability).

The mapping is created with ``mmap.ACCESS_READ``, so every view is
born read-only: a stray write through a mapped array raises at the
interpreter level instead of silently corrupting the file for every
process sharing it.  The ``mmap-discipline`` lint rule holds this module
(and every consumer of its views) to that contract statically.

POSIX semantics carry the fabric's rotation trick over unchanged: an
unlinked-but-mapped file stays fully readable until the last mapping
closes, so a publisher may unlink a superseded generation immediately
while workers finish in-flight queries on it.

:func:`attach_store` adapts a mapped file to the worker-side
:class:`~repro.parallel.shm.AttachedSnapshot` interface (``.compiled``,
``.epoch``, ``.close``) so the parallel fabric can serve from a file
handle exactly as it serves from a shared-memory one.
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.compiled import SNAPSHOT_FIELDS, CompiledDG
from repro.errors import StoreCorruptionError, StoreStaleError
from repro.store.format import (
    SectionSpec,
    StoreInfo,
    StoreStamp,
    read_toc,
    section_digest,
)

#: Section vocabulary of ``kind="compiled"`` files, in layout order —
#: the snapshot's own field list, the same object the shared-memory
#: transport lays out (:data:`repro.parallel.shm.ARRAY_FIELDS`).
COMPILED_SECTIONS = SNAPSHOT_FIELDS


def _view(buffer: mmap.mmap, spec: SectionSpec) -> np.ndarray:
    """A read-only numpy view of one section (no copy, no page reads)."""
    count = 1
    for dim in spec.shape:
        count *= dim
    flat = np.frombuffer(
        buffer, dtype=np.dtype(spec.dtype), count=count, offset=spec.offset
    )
    return flat.reshape(spec.shape)


def _release(mapping: mmap.mmap) -> None:
    """Drop the mapping; tolerates live views (reclaimed at exit)."""
    try:
        mapping.close()
    except BufferError:
        # A numpy view outlived the store object; the mapping stays
        # until the process exits rather than crashing the closer.
        pass


class MappedStore:
    """A verified store file served through a read-only mapping.

    Construction runs fast verification (:func:`repro.store.format.read_toc`)
    and maps the file ``ACCESS_READ``; no section page is touched until a
    view is dereferenced, which is what keeps multi-gigabyte cold opens
    at O(header).  :meth:`verify` re-hashes sections on demand — the deep
    check the open path deliberately skips.
    """

    def __init__(self, path: str, info: StoreInfo, mapping: mmap.mmap) -> None:
        self.path = path
        self.info = info
        self._mapping: Optional[mmap.mmap] = mapping
        self._finalizer = weakref.finalize(self, _release, mapping)

    @property
    def stamp(self) -> StoreStamp:
        """The staleness stamp read (and digest-verified) at open time."""
        return self.info.stamp

    @property
    def closed(self) -> bool:
        """True once the mapping has been released."""
        return self._mapping is None

    def close(self) -> None:
        """Release the mapping (invalidates all views).  Idempotent."""
        self._mapping = None
        self._finalizer()

    def __enter__(self) -> "MappedStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _buffer(self) -> mmap.mmap:
        if self._mapping is None:
            raise ValueError(f"mapped store {self.path} is closed")
        return self._mapping

    def section(self, name: str) -> np.ndarray:
        """Read-only view of a section; ``KeyError`` if absent."""
        return _view(self._buffer(), self.info.spec(name))

    def sections(self) -> "dict[str, np.ndarray]":
        """Read-only views of every section, in file order."""
        buffer = self._buffer()
        return {
            spec.name: _view(buffer, spec) for spec in self.info.sections
        }

    def verify_section(self, name: str) -> None:
        """Re-hash one section against its table digest.

        Raises :class:`~repro.errors.StoreCorruptionError` naming the
        section on mismatch.  This is the scrubber's unit of work.
        """
        spec = self.info.spec(name)
        if section_digest(_view(self._buffer(), spec)) != spec.sha256:
            raise StoreCorruptionError(
                "section checksum mismatch (bytes differ from the "
                "digest recorded at write time)",
                path=self.path,
                section=name,
            )

    def verify(self) -> None:
        """Deep verification: re-hash every section.  O(file size)."""
        for spec in self.info.sections:
            self.verify_section(spec.name)

    def compiled(self) -> CompiledDG:
        """The mapped :class:`CompiledDG` (``kind="compiled"`` files only).

        Arrays are views into the mapping — zero copies, shared pages —
        and read-only by construction.
        """
        stamp = self.info.stamp
        if stamp.kind != "compiled":
            raise StoreCorruptionError(
                f"file holds a {stamp.kind!r} payload, not a compiled "
                "snapshot",
                path=self.path,
            )
        missing = [
            name
            for name in COMPILED_SECTIONS
            if name not in self.info.section_names
        ]
        if missing:
            raise StoreCorruptionError(
                "compiled payload is missing required sections",
                path=self.path,
                section=missing[0],
            )
        return CompiledDG.from_arrays(
            self.sections(),
            first_layer_size=stamp.first_layer_size,
            source_version=stamp.source_version,
        )

    def __repr__(self) -> str:
        return (
            f"MappedStore(path={self.path!r}, "
            f"kind={self.info.stamp.kind!r}, "
            f"generation={self.info.stamp.generation}, closed={self.closed})"
        )


def open_store(
    path: str,
    *,
    deep: bool = False,
    expect: "StoreStamp | None" = None,
) -> MappedStore:
    """Open a store file: fast-verify the TOC, map it read-only.

    Parameters
    ----------
    path:
        The ``.dgs`` file.
    deep:
        Also re-hash every section before returning (O(file size); the
        default fast path is O(header) and never reads section pages).
    expect:
        When given, the file's stamp must agree on ``kind``,
        ``source_version``, and ``applied_seq`` (non-zero expectations
        only) or :class:`~repro.errors.StoreStaleError` is raised —
        this is the staleness discipline that keeps a stale-but-intact
        file from being served as current.
    """
    info = read_toc(path)
    if expect is not None:
        _check_stamp(info.stamp, expect, path)
    with open(path, "rb") as handle:
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    store = MappedStore(path, info, mapping)
    if deep:
        try:
            store.verify()
        except StoreCorruptionError:
            store.close()
            raise
    return store


def _check_stamp(found: StoreStamp, expect: StoreStamp, path: str) -> None:
    if found.kind != expect.kind:
        raise StoreStaleError("kind", expect.kind, found.kind, path=path)
    if expect.source_version and found.source_version != expect.source_version:
        raise StoreStaleError(
            "source_version",
            expect.source_version,
            found.source_version,
            path=path,
        )
    if expect.applied_seq and found.applied_seq != expect.applied_seq:
        raise StoreStaleError(
            "applied_seq", expect.applied_seq, found.applied_seq, path=path
        )


@dataclass(frozen=True)
class StoreSnapshotHandle:
    """Picklable pointer to a published compiled-snapshot store file.

    The file-backed twin of :class:`repro.parallel.shm.SnapshotHandle`:
    ship it to worker processes and :func:`attach_store` turns it back
    into a read-only :class:`CompiledDG` with zero copies.  It carries
    the path rather than a layout — the layout lives in the file's own
    verified TOC, so a worker can never map with a stale description.
    """

    path: str
    epoch: int
    generation: int


class MappedSnapshot:
    """Worker-side view of a file-published snapshot.

    Interface-compatible with
    :class:`~repro.parallel.shm.AttachedSnapshot` (``compiled``,
    ``epoch``, ``close``, ``closed``) so the fabric's workers hot-swap
    between shared-memory and file transports without caring which one
    delivered the epoch.
    """

    def __init__(self, store: MappedStore, epoch: int) -> None:
        self._store = store
        self._compiled: Optional[CompiledDG] = store.compiled()
        self.epoch = epoch

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
        """Release the mapping (drops the views first).  Idempotent."""
        self._compiled = None
        self._store.close()

    def __enter__(self) -> "MappedSnapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MappedSnapshot(path={self._store.path!r}, "
            f"epoch={self.epoch}, closed={self.closed})"
        )


def attach_store(handle: StoreSnapshotHandle) -> MappedSnapshot:
    """Map a published store file in the current process, read-only.

    Fast verification runs on every attach, so a worker can never serve
    from a file whose TOC was tampered with or torn — it fails with
    :class:`~repro.errors.StoreCorruptionError` and the fabric's healing
    machinery takes over.  Raises ``FileNotFoundError`` when the
    generation was already unlinked by a newer publish (the same benign
    race the shared-memory transport tolerates).
    """
    store = open_store(handle.path)
    return MappedSnapshot(store, handle.epoch)
