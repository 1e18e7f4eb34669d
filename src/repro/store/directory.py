"""Generation-numbered store files behind an atomic ``CURRENT`` pointer.

A :class:`StoreDirectory` manages one directory of ``store-<gen>.dgs``
files the way the serving index manages its checkpoints: every publish
writes a brand-new generation crash-safely, then atomically repoints a
small ``CURRENT`` file at it, so readers always find either the old
complete generation or the new complete generation — never a torn one.
Superseded generations are unlinked after the pointer moves; POSIX keeps
them readable for any process still mapping them.

Recovery discipline: a file that fails verification is never served and
never silently deleted — :meth:`StoreDirectory.open_current` moves it
into ``quarantine/`` (evidence for ``repro doctor``) and raises the
typed error, letting the caller fall down the degradation ladder
(recompile from source, republish).  :meth:`StoreDirectory.audit` is the
doctor's read-only sweep: orphaned generations, a missing or dangling
``CURRENT``, stamp mismatches, and quarantined files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.compiled import CompiledDG
from repro.core.io import fsync_directory
from repro.errors import StoreCorruptionError
from repro.store.format import StoreInfo, StoreStamp, read_toc, write_store
from repro.store.mapped import (
    COMPILED_SECTIONS,
    MappedStore,
    StoreSnapshotHandle,
    open_store,
)

#: The pointer file naming the live generation.
CURRENT_NAME = "CURRENT"

#: Store files are named ``store-<generation>.dgs``.
STORE_FMT = "store-{generation:016d}.dgs"
STORE_SUFFIX = ".dgs"

#: Damaged files are moved here, never deleted or served.
QUARANTINE_DIR = "quarantine"


def _is_store_name(name: str) -> bool:
    return name.startswith("store-") and name.endswith(STORE_SUFFIX)


def _generation_of(name: str) -> "int | None":
    if not _is_store_name(name):
        return None
    stem = name[len("store-") : -len(STORE_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return None


class StoreDirectory:
    """One directory of generation-numbered store files.

    Parameters
    ----------
    root:
        The directory (created if absent).
    keep:
        Completed generations to retain behind the current one; older
        ones are unlinked after each publish.  ``0`` keeps only the
        current generation — the fabric's snapshot spool uses that.
    """

    def __init__(self, root: str, *, keep: int = 0) -> None:
        self.root = os.path.abspath(root)
        self.keep = int(keep)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths and pointer management
    # ------------------------------------------------------------------
    def path_for(self, generation: int) -> str:
        """Absolute path of a generation's store file."""
        return os.path.join(self.root, STORE_FMT.format(generation=generation))

    @property
    def current_path(self) -> str:
        """Absolute path of the ``CURRENT`` pointer file."""
        return os.path.join(self.root, CURRENT_NAME)

    def read_current(self) -> "tuple[str, int] | None":
        """``(path, generation)`` from ``CURRENT``, or None when absent.

        A present-but-unreadable pointer raises
        :class:`~repro.errors.StoreCorruptionError` — a missing pointer
        means "no generation published yet", a mangled one means damage.
        """
        try:
            with open(self.current_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            name = payload["store"]
            generation = int(payload["generation"])
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptionError(
                f"unreadable CURRENT pointer: {exc}", path=self.current_path
            ) from exc
        if _generation_of(name) != generation:
            raise StoreCorruptionError(
                f"CURRENT names {name!r} but claims generation {generation}",
                path=self.current_path,
            )
        return os.path.join(self.root, name), generation

    def _write_current(self, generation: int, *, durable: bool) -> None:
        payload = {
            "store": STORE_FMT.format(generation=generation),
            "generation": generation,
        }
        tmp = f"{self.current_path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                if durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self.current_path)
            if durable:
                fsync_directory(self.root)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _next_generation(self) -> int:
        generations = [
            gen
            for name in os.listdir(self.root)
            if (gen := _generation_of(name)) is not None
        ]
        current = self.read_current()
        if current is not None:
            generations.append(current[1])
        return max(generations, default=0) + 1

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        arrays: "dict[str, np.ndarray]",
        stamp: StoreStamp,
        *,
        durable: bool = True,
    ) -> "tuple[str, int]":
        """Write the next generation and repoint ``CURRENT`` at it.

        Returns ``(path, generation)``.  The sequence — crash-safe store
        write, atomic pointer flip, then orphan collection — means a
        kill at *any* byte offset leaves the directory serving exactly
        the previous generation (the torn-write tests enumerate every
        offset to prove it).  ``durable=False`` drops the fsyncs for
        spool directories whose contents a restart regenerates.
        """
        generation = self._next_generation()
        path = self.path_for(generation)
        write_store(
            path,
            arrays,
            StoreStamp(
                kind=stamp.kind,
                generation=generation,
                source_version=stamp.source_version,
                applied_seq=stamp.applied_seq,
                first_layer_size=stamp.first_layer_size,
                format_version=stamp.format_version,
            ),
            durable=durable,
        )
        self._write_current(generation, durable=durable)
        self.collect_orphans()
        return path, generation

    def publish_compiled(
        self,
        compiled: CompiledDG,
        *,
        epoch: int = 0,
        applied_seq: int = 0,
        durable: bool = True,
    ) -> StoreSnapshotHandle:
        """Publish a :class:`CompiledDG` as the next generation.

        Returns the picklable handle the parallel fabric ships to
        workers in place of a shared-memory one.
        """
        arrays = {
            name: getattr(compiled, name) for name in COMPILED_SECTIONS
        }
        path, generation = self.publish(
            arrays,
            StoreStamp(
                kind="compiled",
                source_version=compiled.source_version,
                applied_seq=int(applied_seq),
                first_layer_size=int(compiled.first_layer_size),
            ),
            durable=durable,
        )
        return StoreSnapshotHandle(
            path=path, epoch=int(epoch), generation=generation
        )

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------
    def open_current(
        self,
        *,
        deep: bool = False,
        expect: "StoreStamp | None" = None,
    ) -> MappedStore:
        """Open the live generation; quarantine it if verification fails.

        Raises ``FileNotFoundError`` when no generation has been
        published, :class:`~repro.errors.StoreCorruptionError` after
        moving a damaged file to ``quarantine/`` (it is never served and
        never destroyed), and :class:`~repro.errors.StoreStaleError`
        when ``expect`` disagrees with the stamp (stale files are *not*
        quarantined — they are intact, just outdated).
        """
        current = self.read_current()
        if current is None:
            raise FileNotFoundError(
                f"no CURRENT pointer in {self.root}; nothing published yet"
            )
        path, _generation = current
        try:
            return open_store(path, deep=deep, expect=expect)
        except StoreCorruptionError:
            self.quarantine(path)
            raise

    def quarantine(self, path: str) -> "str | None":
        """Move a damaged file into ``quarantine/``; returns the new path.

        Keeps the evidence for post-mortem (``repro doctor`` lists it)
        while guaranteeing no later open can serve it.  Returns None if
        the file disappeared meanwhile.
        """
        if not os.path.exists(path):
            return None
        pen = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(pen, exist_ok=True)
        target = os.path.join(pen, os.path.basename(path))
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(
                pen, f"{os.path.basename(path)}.{suffix}"
            )
        os.replace(path, target)
        fsync_directory(self.root)
        return target

    def quarantined(self) -> "list[str]":
        """Basenames currently held in ``quarantine/``, sorted."""
        pen = os.path.join(self.root, QUARANTINE_DIR)
        if not os.path.isdir(pen):
            return []
        return sorted(os.listdir(pen))

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def generations(self) -> "list[int]":
        """Generation numbers present on disk, ascending."""
        return sorted(
            gen
            for name in os.listdir(self.root)
            if (gen := _generation_of(name)) is not None
        )

    def collect_orphans(self) -> "list[str]":
        """Unlink generations older than ``CURRENT`` minus ``keep``.

        Also removes stray ``.tmp.*`` files a killed publish left
        behind.  Never touches the current generation, newer ones (a
        concurrent publisher may be mid-flip), or quarantine.  Returns
        the basenames removed.
        """
        current = self.read_current()
        removed: "list[str]" = []
        for name in sorted(os.listdir(self.root)):
            full = os.path.join(self.root, name)
            if ".tmp." in name and os.path.isfile(full):
                os.unlink(full)
                removed.append(name)
                continue
            generation = _generation_of(name)
            if generation is None or current is None:
                continue
            if generation <= current[1] - 1 - self.keep:
                os.unlink(full)
                removed.append(name)
        return removed

    def clear(self) -> None:
        """Remove every store file, the pointer, and quarantine."""
        pen = os.path.join(self.root, QUARANTINE_DIR)
        if os.path.isdir(pen):
            for name in os.listdir(pen):
                os.unlink(os.path.join(pen, name))
            os.rmdir(pen)
        for name in os.listdir(self.root):
            full = os.path.join(self.root, name)
            if name == CURRENT_NAME or _is_store_name(name) or ".tmp." in name:
                if os.path.isfile(full):
                    os.unlink(full)

    # ------------------------------------------------------------------
    # Audit (repro doctor)
    # ------------------------------------------------------------------
    def audit(self) -> dict:
        """Read-only health sweep for ``repro doctor --json``.

        Returns a JSON-ready dict: the live generation and its stamp (or
        the typed error that kept it from opening), generations on disk,
        orphans (present but unreferenced by ``CURRENT``), stray temp
        files, and quarantined basenames.  Never mutates the directory.
        """
        report: dict = {
            "root": self.root,
            "current": None,
            "generation": None,
            "stamp": None,
            "generations": self.generations(),
            "orphans": [],
            "temp_files": sorted(
                name for name in os.listdir(self.root) if ".tmp." in name
            ),
            "quarantined": self.quarantined(),
            "issues": [],
        }
        def close_out(report: dict) -> dict:
            # Hygiene findings are appended whatever state the CURRENT
            # chain was left in — a quarantine backlog next to a corrupt
            # pointer is exactly when the operator needs to see both.
            if report["quarantined"]:
                report["issues"].append(
                    f"{len(report['quarantined'])} quarantined file(s) "
                    "awaiting inspection"
                )
            if report["temp_files"]:
                report["issues"].append(
                    f"{len(report['temp_files'])} stray temp file(s) from "
                    "an interrupted publish"
                )
            return report

        try:
            current = self.read_current()
        except StoreCorruptionError as exc:
            report["issues"].append(f"CURRENT pointer corrupt: {exc}")
            return close_out(report)
        if current is None:
            if report["generations"]:
                report["issues"].append(
                    "store files present but CURRENT is missing"
                )
                report["orphans"] = [
                    STORE_FMT.format(generation=gen)
                    for gen in report["generations"]
                ]
            return close_out(report)
        path, generation = current
        report["current"] = os.path.basename(path)
        report["generation"] = generation
        report["orphans"] = [
            STORE_FMT.format(generation=gen)
            for gen in report["generations"]
            if gen != generation and gen <= generation - 1 - self.keep
        ]
        if not os.path.exists(path):
            report["issues"].append(
                f"CURRENT points at missing file {os.path.basename(path)}"
            )
            return close_out(report)
        try:
            info: StoreInfo = read_toc(path)
        except StoreCorruptionError as exc:
            report["issues"].append(f"current generation corrupt: {exc}")
            return close_out(report)
        report["stamp"] = info.stamp.to_dict()
        if info.stamp.generation != generation:
            report["issues"].append(
                f"stamp mismatch: CURRENT claims generation {generation}, "
                f"file is stamped {info.stamp.generation}"
            )
        return close_out(report)
