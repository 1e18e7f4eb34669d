"""Durable concurrent serving of a Dominant Graph index.

:class:`ServingIndex` turns the library's single-threaded index into a
process that can take reads and writes at the same time, crash at any
instant, and come back serving the same answers.  Three ideas carry all
of it:

**RCU snapshot rotation (reads).**  Queries never touch the mutable
:class:`~repro.core.graph.DominantGraph`.  They run against an immutable
:class:`~repro.core.compiled.CompiledDG` published in a
:class:`ServingSnapshot` tagged with a monotone *epoch*.  The writer
applies a maintenance batch to its private graph, compiles the result,
and swaps the snapshot reference in one atomic store — so a reader that
pinned the old snapshot keeps answering from a consistent pre-batch
world, and every reader observes either the pre-batch or the post-batch
index, never a half-applied mix.  (Snapshots are
:meth:`~repro.core.compiled.CompiledDG.detach`\\ ed: staleness tracking
is a single-version safety net, and this is deliberately multi-version.)

**Checkpoint + write-ahead log (durability).**  Durable state is the
last :func:`~repro.core.io.save_graph` checkpoint plus an append-only
:class:`~repro.serve.wal.WriteAheadLog` of every operation applied since
(paper Section V's inserts/deletes, plus the §V-B mark-as-deleted).
Every mutation is framed, CRC'd, and (per the fsync policy) synced
before the call returns.  Checkpointing follows the LevelDB ``CURRENT``
pattern: write ``checkpoint-<seq>.npz`` durably, atomically swap the
``CURRENT`` pointer file to name it, then atomically replace the WAL
with an empty successor.  A crash between any two of those steps is
recoverable: recovery loads whatever ``CURRENT`` names and replays WAL
records *with sequence greater than the checkpoint's watermark*, so
double-applied and never-applied prefixes are both impossible.

**Single writer (maintenance).**  The paper's maintenance algorithms
are local but not concurrent; a writer lock serializes them, exactly as
cheap as the paper assumes.  A mutation that fails *validation* raises
before anything is touched (see
:func:`~repro.core.maintenance.insert_many`'s all-or-nothing contract);
a mutation that fails *mid-apply* — which the validation contract makes
a bug, not an input — poisons the writer: the half-mutated graph is
never published or logged, reads continue from the last good snapshot,
and writes refuse until a restart recovers from checkpoint + WAL.

**Base+delta overlay (O(changes) publish).**  Recompiling on every
mutation makes publish cost O(n) regardless of batch size.  With
``overlay_limit`` > 0 (the default) a publish instead keeps the last
compiled :class:`CompiledDG` as an immutable *base* and describes the
mutation in a :class:`~repro.core.overlay.DeltaOverlay` — fresh records
plus a deletion mask over base rows — frozen from the writer's
:class:`~repro.core.maintenance.OverlayBuilder` in O(overlay) time.
Queries merge the masked base sweep with an exhaustive delta scan,
bit-identical to a recompile (:mod:`repro.core.overlay` carries the
argument; the parity suites enforce it).  When the overlay crosses
``overlay_limit`` the publish folds it synchronously (a full recompile
under the new epoch); a background :class:`~repro.serve.compactor.Compactor`
(enabled via ``compact_interval``) folds earlier — on half the limit or
on overlay age — *under the unchanged epoch*, which is sound because a
compacted snapshot answers bit-identically to the base+overlay snapshot
it replaces.  The fabric keeps serving whole compiled snapshots: batch
reads ride the workers only while the overlay is empty, and compaction
(not each mutation) republishes the shared segment.  Overlay-application
failure and compactor failure both degrade to the full-recompile
publish — never wrong, only slower.

**Serve before rebuild (recovery).**  Only writers need the mutable
graph; a read touches nothing but the compiled arrays.  So recovery
verifies and validates the checkpoint, compiles its arrays straight
into the base, turns the WAL suffix past the checkpoint into the
overlay — the same base+overlay a live writer would have published —
and serves.  The graph (checkpoint plus replay through Section V
maintenance, exactly what recovery used to do up front) is built once,
by the first write, fold or checkpoint that needs it.  Answers are
bit-identical either way, by the same argument that makes a publish
through the overlay bit-identical to a recompile.

Query admission is bounded (:mod:`repro.serve.admission`): overload
sheds instead of queueing without bound, transient engine faults are
retried with backoff and then degraded to a scan *of the same pinned
snapshot* (so even a degraded answer is epoch-consistent), and budgets
ride :class:`~repro.core.guard.BudgetedAccessCounter` unchanged.

Directory layout::

    <dir>/CURRENT               {"checkpoint": ..., "applied_seq": N}
    <dir>/checkpoint-<seq>.dgs  repro.store checkpoint (graph payload)
    <dir>/wal.log               repro.serve.wal
    <dir>/snapshots/            fabric snapshot spool (store files, when
                                workers > 0; derived data, never durable)
    <dir>/quarantine/           checkpoints that failed verification

Checkpoints are written in the binary store format (:mod:`repro.store`):
checksummed per section, stamped with the WAL sequence they cover, and
scrubbable in place.  Directories created by older builds (``.npz``
checkpoints) still open — the loader dispatches on the extension the
``CURRENT`` pointer names — and convert to the store format at their
next checkpoint.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, NoReturn

import numpy as np

from repro.core.builder import build_dominant_graph
from repro.core.compiled import CompiledDG
from repro.core.dataset import Dataset
from repro.core.functions import ScoringFunction, WherePredicate
from repro.core.graph import DominantGraph
# snapshot_scan is re-exported: repro.serve and its callers import it from here.
from repro.core.guard import ladder_top_k, snapshot_scan
from repro.core.io import (
    _compile_payload,
    _construct,
    _load_payload as _load_npz_payload,
    fsync_directory,
    save_graph,
)
from repro.core.maintenance import (
    OverlayBuilder,
    delete_record,
    insert_record,
    mark_deleted,
    validate_delete_batch,
    validate_insert_batch,
)
from repro.core.overlay import DeltaOverlay, alive_record_ids
from repro.core.result import TopKResult
from repro.errors import (
    DeadlineExceeded,
    DegradedResultWarning,
    IndexCorruptionError,
    ServiceUnavailable,
    StoreCorruptionError,
    WALCorruptionError,
)
from repro.parallel.executor import ParallelQueryExecutor
from repro.resilience.breaker import BreakerBoard
from repro.resilience.deadline import Deadline
from repro.resilience.policy import RetryPolicy, TimeoutPolicy
from repro.serve.admission import AdmissionController
from repro.serve.cache import CacheKey, ResultCache, cache_key
from repro.serve.compactor import Compactor
from repro.store.graphstore import _load_payload as _load_store_payload
from repro.store.graphstore import save_graph_store
from repro.store.mapped import MappedStore, open_store
from repro.store.scrub import StoreScrubber
from repro.serve.wal import WriteAheadLog, create_wal, scan_wal

CURRENT_NAME = "CURRENT"
WAL_NAME = "wal.log"
_CHECKPOINT_FMT = "checkpoint-{seq:016d}.dgs"
#: Subdirectory holding the fabric's snapshot spool (derived data).
SNAPSHOT_SPOOL = "snapshots"
#: Subdirectory where damaged checkpoints are preserved, never served.
QUARANTINE_DIR = "quarantine"
#: How many recent publish latencies back the p50/p99 health columns.
_PUBLISH_SAMPLE_WINDOW = 512
#: ``overlay_limit`` when none is given (``open`` reads it before
#: ``__init__`` does).
_OVERLAY_LIMIT = 128


def _save_checkpoint(graph: DominantGraph, path: str, seq: int) -> str:
    """Write a checkpoint in the format its extension names."""
    if path.endswith(".npz"):
        return save_graph(graph, path, durable=True)
    return save_graph_store(graph, path, applied_seq=seq, durable=True)


def _load_checkpoint(path: str) -> dict:
    """The payload of the checkpoint ``CURRENT`` names, in either format.

    ``.dgs`` store checkpoints (every section re-hashed) and legacy
    ``.npz`` archives (manifest-checked) both come back fully
    validated, the graph not yet built; corruption in either raises a
    typed :class:`~repro.errors.IndexCorruptionError`.
    """
    if path.endswith(".dgs"):
        return _load_store_payload(path)
    return _load_npz_payload(path)


# ----------------------------------------------------------------------
# Operation log vocabulary
# ----------------------------------------------------------------------
def apply_op(graph: DominantGraph, op: dict) -> None:
    """Apply one logged operation to a graph (recovery replay).

    Replay calls the same Section V maintenance code the live writer
    used, so a recovered index is *constructed by* the operations, not
    approximated from them — the crash-recovery tests then hold it
    bit-identical to a from-scratch rebuild.
    """
    kind = op.get("op")
    if kind == "insert":
        insert_record(graph, int(op["rid"]))
    elif kind == "delete":
        delete_record(graph, int(op["rid"]))
    elif kind == "mark_deleted":
        mark_deleted(graph, int(op["rid"]))
    elif kind == "insert_many":
        for rid in validate_insert_batch(graph, op["rids"]):
            insert_record(graph, rid)
    elif kind == "delete_many":
        for rid in validate_delete_batch(graph, op["rids"]):
            delete_record(graph, rid)
    else:
        raise ValueError(f"unknown WAL operation {kind!r}")


# ----------------------------------------------------------------------
# Recovery: a checkpoint payload plus the WAL suffix past it
# ----------------------------------------------------------------------
def _logged_ids(op: object) -> "tuple[str | None, list[int]]":
    """``(kind, ids)`` of an op shaped as the live writer logs it.

    ``(None, [])`` for anything else — recovery then replays it into
    the graph, which raises on it exactly as it always has.
    """
    if isinstance(op, dict):
        kind = op.get("op")
        if kind in ("insert", "delete", "mark_deleted"):
            ids = [op.get("rid")]
        elif kind in ("insert_many", "delete_many"):
            ids = op.get("rids")
        else:
            return None, []
        if isinstance(ids, list) and all(type(rid) is int for rid in ids):
            return kind, ids
    return None, []


class _SuffixMembership:
    """Who is indexed while a WAL suffix replays over a checkpoint payload.

    :func:`~repro.core.maintenance.validate_insert_batch` and
    :func:`~repro.core.maintenance.validate_delete_batch` ask a graph
    two things — ``rid in graph`` and ``len(graph.dataset)`` — and this
    answers both from the payload, so recovery refuses an op with the
    message replaying it into the graph would give.  It is exact for
    *settled* ids only: dataset rows that are real records or not
    indexed at all.  Whether a pseudo record — minted, or a row
    ``mark_deleted`` converted — is still indexed depends on the graph
    itself (a delete's cascade collects childless ones), so an op
    naming one is replayed into the graph instead.
    """

    def __init__(self, payload: dict) -> None:
        #: Validation reads only the dataset's length.
        self.dataset: np.ndarray = payload["values"]
        rows = len(self.dataset)
        record_ids = payload["record_ids"]
        self._indexed = np.zeros(rows, dtype=bool)
        self._indexed[record_ids[record_ids < rows]] = True
        self._unsettled = set(payload["pseudo_ids"].tolist())

    def __contains__(self, record_id: int) -> bool:
        return bool(self._indexed[record_id])  # asked for settled ids only

    def settled(self, record_ids: "list[int]") -> bool:
        """True when every id is a dataset row whose membership is exact."""
        rows = self._indexed.shape[0]
        return all(
            0 <= rid < rows and rid not in self._unsettled
            for rid in record_ids
        )

    def apply(self, kind: str, record_ids: "list[int]") -> None:
        """Track a validated op's effect on membership."""
        if kind == "mark_deleted":
            self._unsettled.update(record_ids)
        else:
            self._indexed[record_ids] = kind.startswith("insert")


@dataclass
class _Recovery:
    """A validated checkpoint payload and the WAL suffix past its watermark.

    Enough to serve — the base compiled straight from the payload, the
    suffix as an overlay on it (:meth:`replay_as_overlay`) — and to
    build the mutable graph once a writer needs it (:meth:`graph`).
    """

    payload: dict
    checkpoint_path: str
    wal_path: str
    #: ``(seq, op)`` records with ``seq`` past the checkpoint's watermark.
    suffix: list
    #: Set by :meth:`replay_as_overlay`: the base, and the suffix on it.
    base: CompiledDG | None = None
    builder: OverlayBuilder | None = None

    def graph(self) -> DominantGraph:
        """Checkpoint + replay: the graph the live writer left behind.

        Replay calls the same Section V maintenance code the live writer
        used, so the graph is *constructed by* the operations, not
        approximated from them.
        """
        graph = _construct(self.payload, self.checkpoint_path)
        for seq, op in self.suffix:
            try:
                apply_op(graph, op)
            except (KeyError, ValueError, IndexError) as exc:
                self._unreplayable(seq, op, exc)
        return graph

    def replay_as_overlay(self, limit: int) -> bool:
        """Compile the payload into the base and the suffix into an overlay.

        Every op is validated first, against the payload's membership,
        by the rules replay applies — a WAL the graph would refuse is
        refused here, with the same :class:`~repro.errors.WALCorruptionError`.
        ``False`` means the graph must be built now: the overlay would
        outgrow ``limit``, or an op names an id only the graph can
        answer for (see :class:`_SuffixMembership`), or is not shaped as
        the live writer logs it.
        """
        base = _compile_payload(self.payload)
        builder = OverlayBuilder(base)
        members = _SuffixMembership(self.payload)
        values = self.payload["values"]
        for seq, op in self.suffix:
            kind, ids = _logged_ids(op)
            if kind is None or not members.settled(ids):
                return False
            inserting = kind.startswith("insert")
            try:
                if inserting:
                    validate_insert_batch(members, ids)
                else:
                    validate_delete_batch(members, ids)
            except (KeyError, ValueError, IndexError) as exc:
                self._unreplayable(seq, op, exc)
            members.apply(kind, ids)
            try:
                for rid in ids:
                    if inserting:
                        builder.insert(rid, values[rid])
                    else:
                        builder.delete(rid)
            except KeyError:
                return False
            if builder.size > limit:
                return False
        self.base, self.builder = base, builder
        return True

    def _unreplayable(self, seq: int, op: dict, exc: Exception) -> NoReturn:
        raise WALCorruptionError(
            f"record {seq} ({op.get('op')!r}) no longer applies to "
            f"the checkpointed index: {exc}",
            path=self.wal_path,
        ) from exc


# ----------------------------------------------------------------------
# CURRENT pointer file
# ----------------------------------------------------------------------
def _write_current(directory: str, checkpoint: str, applied_seq: int) -> None:
    """Atomically (and durably) point ``CURRENT`` at a checkpoint."""
    path = os.path.join(directory, CURRENT_NAME)
    tmp = f"{path}.tmp.{os.getpid()}"
    body = json.dumps(
        {"checkpoint": checkpoint, "applied_seq": int(applied_seq)},
        sort_keys=True,
    ).encode()
    try:
        with open(tmp, "wb") as handle:
            handle.write(body + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(directory)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_current(directory: str) -> tuple:
    """``(checkpoint_name, applied_seq)`` from the pointer file."""
    path = os.path.join(directory, CURRENT_NAME)
    try:
        with open(path, "rb") as handle:
            meta = json.loads(handle.read().decode())
        checkpoint = str(meta["checkpoint"])
        applied_seq = int(meta["applied_seq"])
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise IndexCorruptionError(
            f"unreadable CURRENT pointer: {exc}", path=path
        ) from exc
    if os.path.sep in checkpoint or checkpoint in ("", ".", ".."):
        raise IndexCorruptionError(
            f"CURRENT names an invalid checkpoint {checkpoint!r}", path=path
        )
    return checkpoint, applied_seq


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingSnapshot:
    """One immutable published version of the index.

    Attributes
    ----------
    compiled:
        Detached :class:`~repro.core.compiled.CompiledDG` — the *base*;
        safe for any number of concurrent readers, forever.
    epoch:
        Monotone publish counter (one bump per completed maintenance
        batch).  A query's :attr:`~repro.core.result.TopKResult.epoch`
        names the snapshot that answered it.  A background compaction
        republishes under the *same* epoch: the folded snapshot answers
        bit-identically, so the epoch's oracle is unchanged.
    seq:
        WAL sequence of the last operation this snapshot includes.
    overlay:
        Everything applied since ``compiled`` was built
        (:class:`~repro.core.overlay.DeltaOverlay`), or ``None`` when
        the base alone is current.  Immutable like the base.
    """

    compiled: CompiledDG
    epoch: int
    seq: int
    overlay: DeltaOverlay | None = field(default=None)

    def alive_ids(self) -> np.ndarray:
        """Sorted ids of every answerable record in this snapshot.

        Overlay-aware: the base's real-record list alone over-reports
        deletions in flight and misses fresh inserts.
        """
        return alive_record_ids(self.compiled, self.overlay)


# ----------------------------------------------------------------------
# The serving index
# ----------------------------------------------------------------------
class ServingIndex:
    """WAL-backed, snapshot-isolated, crash-recoverable index server.

    Construct with :meth:`create` (new directory) or :meth:`open`
    (recover an existing one); both accept the same keyword knobs.

    Parameters
    ----------
    fsync:
        WAL durability policy (see :mod:`repro.serve.wal`).
    checkpoint_interval:
        Auto-checkpoint after this many mutations (``None`` = only on
        :meth:`checkpoint`/:meth:`close`).
    max_concurrent / max_waiting / wait_timeout:
        Admission bounds (see :class:`~repro.serve.admission.AdmissionController`).
    query_retries:
        Extra attempts for a transiently failing snapshot traversal
        before degrading to the snapshot scan.
    cache_size:
        Capacity of the epoch-keyed LRU result cache
        (:mod:`repro.serve.cache`); ``None`` or ``0`` disables caching.
        Entries are keyed by ``(epoch, weights, k)``, so a publish
        invalidates them all implicitly.
    workers:
        When positive, attach a :class:`~repro.parallel.executor.ParallelQueryExecutor`
        of this many processes over a shared-memory copy of each
        published snapshot; :meth:`query_batch` then fans out to it, and
        every writer publish republishes the shared segment.
    worker_batch_size:
        Queries per fabric sub-batch (see
        :func:`~repro.core.compiled.batch_top_k` for the memory bound).
    timeout_policy:
        The stack's wall-clock knobs
        (:class:`~repro.resilience.policy.TimeoutPolicy`): the default
        end-to-end request deadline, the fabric's hung-worker reply
        timeout, and the hedge fraction.  The default grants no
        deadline (unbounded requests, the pre-resilience behaviour) and
        a 2-second reply timeout on the fabric.
    retry_policy:
        Deadline-aware retry for transiently failing snapshot
        traversals (:class:`~repro.resilience.policy.RetryPolicy`);
        overrides ``query_retries``/``retry_base_delay`` when given.
    overlay_limit:
        Cap on the delta overlay's size (inserts + deletions) before a
        publish folds it with a synchronous full recompile.  ``0`` or
        ``None`` disables the overlay entirely — every publish then
        recompiles, the pre-overlay behaviour.  The cap bounds the read
        path's extra work (one exhaustive scan of at most this many
        delta records per query), which is what keeps read p99 within
        budget while writes stream.
    compact_interval:
        When set (> 0, seconds), start a background
        :class:`~repro.serve.compactor.Compactor` that folds the
        overlay into a fresh base once it reaches half of
        ``overlay_limit`` or turns ``compact_age`` seconds old —
        without consuming an epoch, since the folded snapshot answers
        bit-identically.  ``None`` (default) leaves folding to the
        synchronous overflow path and explicit :meth:`compact` calls,
        which keeps single-threaded tests deterministic.
    compact_age:
        Age threshold (seconds since the overlay's oldest change) for
        the background compactor; ``None`` disables age-based folding.

    Examples
    --------
    >>> import tempfile
    >>> from repro.core.dataset import Dataset
    >>> directory = tempfile.mkdtemp()
    >>> from repro.core.functions import LinearFunction
    >>> with ServingIndex.create(directory, Dataset([[2.0, 1.0], [1.0, 2.0], [0.2, 0.2]])) as idx:
    ...     idx.query(LinearFunction([0.5, 0.5]), k=1).ids
    (0,)
    """

    def __init__(
        self,
        directory: str,
        graph: "DominantGraph | _Recovery",
        wal: WriteAheadLog,
        *,
        fsync: str = "always",
        checkpoint_interval: int | None = 256,
        max_concurrent: int = 8,
        max_waiting: int = 16,
        wait_timeout: float | None = 5.0,
        query_retries: int = 1,
        retry_base_delay: float = 0.005,
        cache_size: int | None = 256,
        workers: int = 0,
        worker_batch_size: int = 64,
        timeout_policy: TimeoutPolicy | None = None,
        retry_policy: RetryPolicy | None = None,
        scrub_interval: float | None = None,
        overlay_limit: int | None = _OVERLAY_LIMIT,
        compact_interval: float | None = None,
        compact_age: float | None = 2.0,
    ) -> None:
        self._directory = directory
        # The mutable graph, or — after a recovery that served from the
        # checkpoint's arrays — what builds it (see _materialized_graph).
        self._graph: DominantGraph | None = None
        self._recovery: _Recovery | None = None
        if isinstance(graph, DominantGraph):
            self._graph = graph
        else:
            self._recovery = graph
        self._wal = wal
        self._fsync = fsync
        self._checkpoint_interval = checkpoint_interval
        self._scrub_interval = scrub_interval
        self._scrubber: StoreScrubber | None = None
        self._scrub_store: MappedStore | None = None
        self._store_recoveries = 0
        self._publish_stats = {"count": 0, "last_ms": 0.0, "total_ms": 0.0}
        self._publish_samples: deque[float] = deque(
            maxlen=_PUBLISH_SAMPLE_WINDOW
        )
        self._checkpoint_stats = {"count": 0, "last_ms": 0.0, "total_ms": 0.0}
        self._overlay_limit = int(overlay_limit or 0)
        self._compact_age = compact_age
        self._overlay_builder: OverlayBuilder | None = None
        self._base_generation = 0
        self._overlay_publishes = 0
        self._overlay_fallbacks = 0
        self._compaction_stats = {
            "count": 0,
            "failed": 0,
            "forced": 0,
            "last_ms": 0.0,
            "total_ms": 0.0,
        }
        self._compactor: Compactor | None = None
        self._timeouts = (
            TimeoutPolicy() if timeout_policy is None else timeout_policy
        )
        self._retry = (
            RetryPolicy(
                attempts=query_retries + 1, base_delay=retry_base_delay
            )
            if retry_policy is None
            else retry_policy
        )
        self._breakers = BreakerBoard(window=8, min_calls=3, cooldown=0.5)
        self._compiled_breaker = self._breakers.get("tier:compiled")
        self._admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_waiting=max_waiting,
            wait_timeout=wait_timeout,
        )
        self._writer_lock = threading.RLock()
        self._epoch = 0
        self._ops_since_checkpoint = 0
        self._draining = False
        self._closed = False
        self._poisoned: Exception | None = None
        recovery = self._recovery
        if recovery is not None and recovery.builder is not None:
            # Served from the checkpoint's arrays: the WAL suffix is the
            # overlay, and the graph it would have been replayed into is
            # not built until a writer asks for it.
            assert recovery.base is not None
            self._edges_at_fold = int(recovery.payload["edges"].shape[0])
            self._overlay_builder = recovery.builder
            self._snapshot = ServingSnapshot(
                compiled=recovery.base,
                epoch=0,
                seq=wal.last_seq,
                overlay=recovery.builder.freeze(),
            )
        else:
            self._snapshot = self._compile_base_locked(epoch=0)
            if self._overlay_limit > 0:
                self._overlay_builder = OverlayBuilder(self._snapshot.compiled)
        self._cache = ResultCache(cache_size) if cache_size else None
        self._fabric: ParallelQueryExecutor | None = None
        if workers > 0:
            # Snapshots reach the workers as mapped store files in the
            # spool: one physical copy for N processes (page cache), and
            # fast verification on every attach.
            self._fabric = ParallelQueryExecutor(
                self._snapshot.compiled,
                workers=workers,
                batch_size=worker_batch_size,
                epoch=self._snapshot.epoch,
                reply_timeout=self._timeouts.reply_timeout,
                hedge_fraction=self._timeouts.hedge_fraction,
                snapshot_dir=os.path.join(directory, SNAPSHOT_SPOOL),
            )
        if scrub_interval is not None and scrub_interval > 0:
            self._scrubber = StoreScrubber(
                None,  # armed below, once a .dgs checkpoint exists
                interval=scrub_interval,
                breaker=self._breakers.get("store"),
                on_corruption=self._on_store_corruption,
            )
            self._rearm_scrubber()
            self._scrubber.start()
        if (
            self._overlay_limit > 0
            and compact_interval is not None
            and compact_interval > 0
        ):
            self._compactor = Compactor(
                self._compaction_due,
                self._timed_compact,
                interval=compact_interval,
                breaker=self._breakers.get("compactor"),
            )
            self._compactor.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, directory: str, source: DominantGraph | Dataset, **kwargs: Any
    ) -> "ServingIndex":
        """Initialize a fresh serving directory and return the live index.

        ``source`` is a prebuilt (possibly Extended)
        :class:`~repro.core.graph.DominantGraph` or a
        :class:`~repro.core.dataset.Dataset` (indexed with the plain
        builder).  Refuses to clobber an existing serving directory.
        """
        if isinstance(source, DominantGraph):
            graph = source
        elif isinstance(source, Dataset):
            graph = build_dominant_graph(source)
        else:
            raise TypeError(
                "source must be a DominantGraph or Dataset, "
                f"got {type(source).__name__}"
            )
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, CURRENT_NAME)):
            raise FileExistsError(
                f"{directory!r} already holds a serving index; "
                "use ServingIndex.open to recover it"
            )
        name = _CHECKPOINT_FMT.format(seq=0)
        _save_checkpoint(graph, os.path.join(directory, name), 0)
        _write_current(directory, name, 0)
        wal_path = os.path.join(directory, WAL_NAME)
        create_wal(wal_path, base_seq=0)
        wal = WriteAheadLog(wal_path, fsync=kwargs.get("fsync", "always"))
        return cls(directory, graph, wal, **kwargs)

    @classmethod
    def open(cls, directory: str, **kwargs: Any) -> "ServingIndex":
        """Recover a serving directory: checkpoint + WAL suffix.

        Serves before it rebuilds.  The checkpoint is verified (every
        section re-hashed) and validated as it always was, then its
        arrays *are* the base snapshot — already in ``(layer, id)``
        order — and the WAL records past its sequence watermark become
        the overlay, each validated by the rules replay applies; reads
        are answered from base + overlay at epoch 0.  The mutable
        :class:`~repro.core.graph.DominantGraph` (checkpoint plus
        replay through Section V maintenance) is built once, under the
        writer lock, by the first operation that needs it: a write, a
        fold, a checkpoint.  When the overlay cannot express the suffix
        — it outgrows ``overlay_limit``, the overlay is disabled, or an
        op names a pseudo record — the graph is built here instead.

        Tolerates every crash window of the write path: a torn WAL tail
        is dropped (with a :class:`~repro.errors.DegradedResultWarning`
        naming the bytes lost), an orphan checkpoint from an interrupted
        checkpoint swap is garbage-collected, and a WAL that predates
        the checkpoint is replayed only past the checkpoint's sequence
        watermark.  Real corruption — mid-log damage, a WAL from the
        future, a replay that no longer applies — raises typed errors
        rather than guessing.  Open writes no file of its own: the WAL
        suffix is the only record of the changes not yet folded.
        """
        checkpoint, applied_seq = _read_current(directory)
        checkpoint_path = os.path.join(directory, checkpoint)
        try:
            payload = _load_checkpoint(checkpoint_path)
        except StoreCorruptionError:
            # Quarantine-not-serve: keep the evidence, surface the typed
            # error.  Rebuild with `repro serve --init` (or restore the
            # file) — a damaged checkpoint must never be guessed around.
            _quarantine_file(directory, checkpoint_path)
            raise

        wal_path = os.path.join(directory, WAL_NAME)
        if not os.path.exists(wal_path):
            warnings.warn(
                DegradedResultWarning(
                    f"write-ahead log missing from {directory!r}; serving "
                    "from the checkpoint alone (operations after it, if "
                    "any, are lost)"
                ),
                stacklevel=2,
            )
            create_wal(wal_path, base_seq=applied_seq)
        scan = scan_wal(wal_path)
        if scan.base_seq > applied_seq:
            raise IndexCorruptionError(
                f"WAL starts at sequence {scan.base_seq} but the "
                f"checkpoint only covers up to {applied_seq}: operations "
                "are missing between them",
                path=wal_path,
            )
        if scan.torn_bytes:
            warnings.warn(
                DegradedResultWarning(
                    f"dropped {scan.torn_bytes} bytes of torn WAL tail "
                    "(an operation interrupted by a crash before it was "
                    "acknowledged)"
                ),
                stacklevel=2,
            )
        recovery = _Recovery(
            payload,
            checkpoint_path,
            wal_path,
            # Records up to the watermark are already inside the checkpoint.
            [(seq, op) for seq, op in scan.records if seq > applied_seq],
        )
        limit = int(kwargs.get("overlay_limit", _OVERLAY_LIMIT) or 0)
        source: DominantGraph | _Recovery = recovery
        if not (limit and recovery.replay_as_overlay(limit)):
            source = recovery.graph()

        _collect_orphan_checkpoints(directory, keep=checkpoint)
        wal = WriteAheadLog(
            wal_path, fsync=kwargs.get("fsync", "always"), scan=scan
        )
        return cls(directory, source, wal, **kwargs)

    def close(
        self, *, drain_timeout: float | None = 10.0, checkpoint: bool = True
    ) -> bool:
        """Drain in-flight queries, checkpoint, release the WAL.

        New queries and mutations are refused the moment draining
        starts; queries already admitted run to completion (bounded by
        ``drain_timeout``).  Returns ``True`` when the drain completed
        before the timeout.  Idempotent.
        """
        with self._writer_lock:
            if self._closed:
                return True
            self._draining = True
        drained = self._admission.drain(timeout=drain_timeout)
        # Stop the scrubber and compactor outside the writer lock: their
        # callbacks take that lock, and stopping must not deadlock with
        # a recovery or fold already in flight.
        if self._scrubber is not None:
            self._scrubber.stop()
        if self._compactor is not None:
            self._compactor.stop()
        with self._writer_lock:
            if checkpoint and self._poisoned is None:
                self._checkpoint_locked()
            self._wal.close()
            if self._fabric is not None:
                self._fabric.shutdown()
            if self._scrub_store is not None:
                self._scrub_store.close()
                self._scrub_store = None
            self._closed = True
        return drained

    def __enter__(self) -> "ServingIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self) -> ServingSnapshot:
        """The currently published snapshot (one atomic reference read)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """Epoch of the currently published snapshot."""
        return self._snapshot.epoch

    def _check_request(
        self, functions: Iterable[ScoringFunction], k: int
    ) -> None:
        """Reject a malformed request before it costs anything.

        The kernel raises the same errors, but from inside the tier
        ladder, where a ``ValueError`` looks like a tier fault: it would
        be retried, degraded to the scan under a warning and charged to
        the compiled tier's breaker — and enough of them open it for
        well-formed queries.  A caller's mistake is not a tier failure.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        dims = int(self._snapshot.compiled.values.shape[1])
        for function in functions:
            got = getattr(function, "dims", dims)
            if got != dims:
                raise ValueError(
                    f"function dims {got} != snapshot dims {dims}"
                )

    def query(
        self,
        function: ScoringFunction,
        k: int,
        *,
        where: WherePredicate | None = None,
        budget_ms: float | None = None,
        budget_records: int | None = None,
        admission_timeout: float | None = None,
        fallback: bool = True,
        deadline_ms: float | None = None,
    ) -> TopKResult:
        """Answer a top-k query from the current snapshot.

        The snapshot is pinned once, after admission; everything the
        query touches — traversal, retries, the degraded scan — reads
        that one immutable version, so the result is tagged with its
        epoch and can never mix two index states.  The query runs down
        :func:`repro.core.guard.ladder_top_k`: the compiled kernel behind
        the ``tier:compiled`` breaker, transient faults retried with
        backoff, then :func:`snapshot_scan` under a
        :class:`DegradedResultWarning` unless ``fallback=False``.
        Budgets are shared by both rungs and never degraded around.

        ``deadline_ms`` grants the request an end-to-end deadline
        (default: the index's
        :attr:`~repro.resilience.policy.TimeoutPolicy.default_deadline_ms`).
        The same :class:`~repro.resilience.Deadline` clamps the
        admission wait, checkpoints the kernel's chunk loop, bounds the
        retry backoff, and covers the degraded scan — expiry anywhere
        raises :class:`~repro.errors.DeadlineExceeded`, never a silent
        overrun.  A compiled tier whose circuit breaker is open is
        skipped straight to the scan tier.

        Raises
        ------
        ServiceUnavailable
            Draining or closed (also its ``ServiceOverloaded`` subclass
            when admission sheds the request).
        QueryBudgetExceeded
            A budget or deadline tripped; never retried, never degraded
            around.
        """
        if self._draining or self._closed:
            raise ServiceUnavailable(
                "draining" if not self._closed else "closed"
            )
        self._check_request((function,), k)
        deadline = self._timeouts.deadline_for(deadline_ms)
        with self._admission.admit(timeout=admission_timeout, deadline=deadline):
            snap = self._snapshot
            key: CacheKey | None = None
            if (
                self._cache is not None
                and where is None
                and budget_ms is None
                and budget_records is None
            ):
                key = cache_key(function, k, snap.epoch)
                cached = self._cache.get(key)
                if cached is not None:
                    return cached
            (result,) = ladder_top_k(
                snap.compiled, snap.overlay, [function], k,
                where=where,
                budget_ms=budget_ms,
                budget_records=budget_records,
                deadline=deadline,
                breaker=self._compiled_breaker,
                retry=self._retry,
                fallback=fallback,
                epoch=snap.epoch,
            )
            if key is not None and result.tier == "compiled":
                # Degraded answers are exact too, but caching them would
                # keep reporting tier="naive" after the engine healed.
                self._cache.put(key, result)
            return result

    def query_batch(
        self,
        functions: Iterable[ScoringFunction],
        k: int,
        *,
        where: WherePredicate | None = None,
        mode: str = "auto",
        admission_timeout: float | None = None,
        deadline_ms: float | None = None,
    ) -> list[TopKResult]:
        """Answer many top-k queries in one admission slot.

        With ``workers`` configured the batch fans out to the shared
        -memory fabric (``mode`` as in
        :meth:`~repro.parallel.executor.ParallelQueryExecutor.map_queries`);
        otherwise it runs the in-process
        :func:`~repro.core.compiled.batch_top_k` sweep.  Either way each
        result is bit-identical to :meth:`query` for the same function
        and carries the epoch of the snapshot that answered it.  Cached
        answers (epoch-keyed, linear functions, no ``where``) are reused
        per query; only the misses are computed.

        Degradation ladder: a fabric infrastructure failure (or an open
        ``fabric`` circuit breaker) falls back to the in-process ladder
        :meth:`query` uses — the compiled sweep behind the
        ``tier:compiled`` breaker and the retry policy, then a
        :func:`snapshot_scan` per query.  Every rung answers from the
        same pinned snapshot, so even a twice-degraded batch is
        epoch-consistent and bit-identical.  A
        :class:`~repro.errors.DeadlineExceeded` never falls through the
        ladder: when the request's time ran out, a slower rung cannot
        help, so the typed error propagates.

        ``deadline_ms`` grants the end-to-end deadline (default: the
        index's timeout policy); it clamps the admission wait, rides
        into the fabric workers, and checkpoints the in-process kernel.

        Budgets are not supported on the batch path — issue budgeted
        queries individually through :meth:`query`.
        """
        if self._draining or self._closed:
            raise ServiceUnavailable(
                "draining" if not self._closed else "closed"
            )
        requested = list(functions)
        if not requested:
            return []
        self._check_request(requested, k)
        deadline = self._timeouts.deadline_for(deadline_ms)
        with self._admission.admit(timeout=admission_timeout, deadline=deadline):
            snap = self._snapshot
            results: list[TopKResult | None] = [None] * len(requested)
            keys: list[CacheKey | None] = [None] * len(requested)
            if self._cache is not None and where is None:
                for index, function in enumerate(requested):
                    keys[index] = cache_key(function, k, snap.epoch)
                    cached = self._cache.get(keys[index])
                    if cached is not None:
                        results[index] = cached
            misses = [i for i, result in enumerate(results) if result is None]
            if misses:
                miss_functions = [requested[i] for i in misses]
                computed = self._fabric_batch(
                    snap, miss_functions, k, where, mode, deadline
                )
                if computed is None:
                    computed = ladder_top_k(
                        snap.compiled, snap.overlay, miss_functions, k,
                        where=where,
                        deadline=deadline,
                        breaker=self._compiled_breaker,
                        retry=self._retry,
                        epoch=snap.epoch,
                    )
                for index, result in zip(misses, computed):
                    results[index] = result
                    if (
                        self._cache is not None
                        and keys[index] is not None
                        # Scan-tier answers are exact but would keep
                        # reporting tier="naive" after the engine healed.
                        and result.tier == "compiled"
                        # A publish can race the fan-out; never file a
                        # result under an epoch it was not computed from.
                        and result.epoch == snap.epoch
                    ):
                        self._cache.put(keys[index], result)
            return [result for result in results if result is not None]

    def _fabric_batch(
        self,
        snap: ServingSnapshot,
        miss_functions: list[ScoringFunction],
        k: int,
        where: WherePredicate | None,
        mode: str,
        deadline: Deadline | None,
    ) -> list[TopKResult] | None:
        """The batch ladder's first rung: the worker fabric, or ``None``.

        ``None`` (no fabric, a live overlay, an open ``fabric`` breaker
        or a fabric fault) sends the misses to the in-process ladder.
        The fabric only serves overlay-free snapshots: workers hold the
        shared-memory *base*, which is republished at compaction, so
        while a delta overlay is live the batch runs the in-process
        merge instead (still exact, still epoch-consistent).
        """
        fabric_breaker = self._breakers.get("fabric")
        if (
            self._fabric is not None
            and snap.overlay is None
            and fabric_breaker.allow()
        ):
            fabric_started = time.monotonic()
            try:
                computed = [
                    result.served_by("compiled")
                    for result in self._fabric.map_queries(
                        miss_functions, k, where=where, mode=mode,
                        deadline=deadline,
                    )
                ]
            except DeadlineExceeded:
                # The request's time is gone; no rung below is faster.
                raise
            except Exception as exc:  # repro: noqa[typed-errors] -- any fabric infrastructure fault must degrade to the in-process rung, not fail the batch
                fabric_breaker.record_failure()
                warnings.warn(
                    DegradedResultWarning(
                        f"fabric batch failed ({type(exc).__name__}: "
                        f"{exc}); degrading to the in-process compiled "
                        "sweep"
                    ),
                    stacklevel=3,
                )
            else:
                fabric_breaker.record_success(
                    1000.0 * (time.monotonic() - fabric_started)
                )
                return computed
        elif self._fabric is not None and snap.overlay is None:
            warnings.warn(
                DegradedResultWarning(
                    f"fabric skipped: its circuit breaker is "
                    f"{fabric_breaker.state}; using the in-process "
                    "compiled sweep"
                ),
                stacklevel=3,
            )
        return None

    # ------------------------------------------------------------------
    # Writes (single-writer, validated, logged, published)
    # ------------------------------------------------------------------
    def insert(self, record_id: int) -> int:
        """Durably index one dataset row; returns its layer."""
        rid = int(record_id)
        return self._mutate(
            {"op": "insert", "rid": rid},
            validate=lambda graph: validate_insert_batch(graph, [rid]),
            apply=lambda graph: insert_record(graph, rid),
        )

    def delete(self, record_id: int) -> None:
        """Durably remove one record (paper Algorithm 5)."""
        rid = int(record_id)
        return self._mutate(
            {"op": "delete", "rid": rid},
            validate=lambda graph: validate_delete_batch(graph, [rid]),
            apply=lambda graph: delete_record(graph, rid),
        )

    def mark_deleted(self, record_id: int) -> None:
        """Durably apply the paper's cheap §V-B mark-as-deleted."""
        rid = int(record_id)
        return self._mutate(
            {"op": "mark_deleted", "rid": rid},
            validate=lambda graph: validate_delete_batch(graph, [rid]),
            apply=lambda graph: mark_deleted(graph, rid),
        )

    def insert_many(self, record_ids: Iterable[int]) -> list[int]:
        """Durably index a batch; one WAL record, one snapshot publish.

        Readers see the whole batch or none of it — the snapshot is
        published once, after the last insert — and recovery replays it
        with the same all-or-nothing contract.
        """
        rids = [int(r) for r in record_ids]
        if not rids:
            return []
        return self._mutate(
            {"op": "insert_many", "rids": rids},
            validate=lambda graph: validate_insert_batch(graph, rids),
            apply=lambda graph: [insert_record(graph, r) for r in rids],
        )

    def delete_many(self, record_ids: Iterable[int]) -> None:
        """Durably remove a batch; one WAL record, one snapshot publish."""
        rids = [int(r) for r in record_ids]
        if not rids:
            return None
        return self._mutate(
            {"op": "delete_many", "rids": rids},
            validate=lambda graph: validate_delete_batch(graph, rids),
            apply=lambda graph: [delete_record(graph, r) for r in rids],
        )

    def _mutate(self, op: dict, *, validate, apply):
        with self._writer_lock:
            self._require_writable()
            graph = self._materialized_graph()
            validate(graph)  # raises before anything is touched
            try:
                result = apply(graph)
            except Exception as exc:  # repro: noqa[typed-errors] -- any mid-apply failure, whatever its type, must poison the writer
                # Validation passed yet apply failed: the in-memory graph
                # may be half-mutated.  Nothing was logged or published,
                # so durable state and readers are both still consistent;
                # the writer refuses further work until a restart
                # recovers from checkpoint + WAL.
                self._poisoned = exc
                raise
            try:
                self._wal.append(op)
            except Exception as exc:  # repro: noqa[typed-errors] -- a failed WAL append of any kind leaves durability unknown; the writer must poison
                self._poisoned = exc
                raise
            self._publish_locked(op)
            self._ops_since_checkpoint += 1
            if (
                self._checkpoint_interval
                and self._ops_since_checkpoint >= self._checkpoint_interval
            ):
                self._checkpoint_locked()
            return result

    def _publish_locked(self, op: dict | None = None) -> ServingSnapshot:
        """Publish the mutation just applied, preferring the O(changes) path.

        With the overlay enabled and ``op`` describable as a delta, the
        new snapshot reuses the current base and carries a freshly
        frozen overlay — no compile, no fabric republish (batch reads
        skip the fabric while an overlay is live).  Overlay overflow,
        overlay-application failure, or a disabled overlay all fall
        back to the full recompile under the same (new) epoch — the
        degradation is in publish *cost*, never in answers.
        """
        publish_started = time.monotonic()
        self._epoch += 1
        snap: ServingSnapshot | None = None
        builder = self._overlay_builder
        if op is not None and builder is not None:
            try:
                self._apply_overlay_op(builder, op)
            except Exception as exc:  # repro: noqa[typed-errors] -- an overlay that cannot express the op must degrade to a recompile, whatever went wrong
                self._overlay_fallbacks += 1
                self._overlay_builder = None  # rebuilt against the new base
                warnings.warn(
                    DegradedResultWarning(
                        f"overlay application failed "
                        f"({type(exc).__name__}: {exc}); publishing via "
                        "full recompile"
                    ),
                    stacklevel=3,
                )
            else:
                if builder.size <= self._overlay_limit:
                    snap = ServingSnapshot(
                        compiled=self._snapshot.compiled,
                        epoch=self._epoch,
                        seq=self._wal.last_seq,
                        overlay=builder.freeze(),
                    )
                    self._snapshot = snap  # atomic swap: the RCU publish
                    self._overlay_publishes += 1
        if snap is None:
            snap = self._publish_base_locked(forced=op is not None)
        if self._cache is not None:
            # Old-epoch entries can never hit again (the epoch is part
            # of the key); purging just reclaims their memory early.
            self._cache.purge_other_epochs(snap.epoch)
        # Publish cost, kept separate from WAL append and checkpoint
        # cost so the write path's spend is attributable
        # (benchmarks/bench_serve.py reports it as its own column).
        elapsed_ms = 1000.0 * (time.monotonic() - publish_started)
        self._publish_stats["count"] += 1
        self._publish_stats["last_ms"] = elapsed_ms
        self._publish_stats["total_ms"] += elapsed_ms
        self._publish_samples.append(elapsed_ms)
        return snap

    def _publish_base_locked(self, *, forced: bool = False) -> ServingSnapshot:
        """Full-recompile publish: compile, swap, republish the fabric.

        The slow path — every pre-overlay publish looked like this.  It
        also *is* the synchronous compaction: the overlay (if any) has
        been folded into the graph all along, so compiling the graph
        yields the next base, and a fresh builder starts empty against
        it.  ``forced`` marks folds the overlay cap forced, for the
        health report's compaction ledger.
        """
        started = time.monotonic()
        snap = self._compile_base_locked(epoch=self._epoch)
        self._snapshot = snap  # atomic reference swap: the RCU publish
        if self._overlay_limit > 0:
            self._overlay_builder = OverlayBuilder(snap.compiled)
            self._base_generation += 1
        if self._fabric is not None:
            # Republish so fabric workers serve the new base (a store
            # file in the snapshot spool); per-worker FIFO ordering
            # makes this a barrier.
            self._fabric.publish(snap.compiled, epoch=snap.epoch)
        elapsed_ms = 1000.0 * (time.monotonic() - started)
        if self._overlay_limit > 0:
            self._compaction_stats["count"] += 1
            if forced:
                self._compaction_stats["forced"] += 1
            self._compaction_stats["last_ms"] = elapsed_ms
            self._compaction_stats["total_ms"] += elapsed_ms
        return snap

    def _compile_base_locked(self, *, epoch: int) -> ServingSnapshot:
        """Compile the graph into a detached, overlay-free base snapshot.

        Every fold goes through here — create and an open that built
        the graph (before the index is shared), full-recompile publish
        and compaction (both under the writer lock) — so this is also
        where the graph's edge count is captured for :meth:`health`,
        which must not walk a graph the writer may be mutating.
        """
        graph = self._materialized_graph()
        self._edges_at_fold = graph.edge_count()
        return ServingSnapshot(
            compiled=graph.compile().detach(),
            epoch=epoch,
            seq=self._wal.last_seq,
        )

    def _materialized_graph(self) -> DominantGraph:
        """The mutable graph — built here, once, if recovery deferred it.

        The one way to the graph: writes, folds, checkpoints and the
        scrubber's rewrite all come through here, under the writer lock,
        and the first of them to arrive after an :meth:`open` that served
        from the checkpoint's arrays pays for building it (checkpoint
        plus replay of the WAL suffix the overlay holds).  Reads and
        :meth:`health` never do.
        """
        with self._writer_lock:
            if self._graph is None:
                assert self._recovery is not None
                self._graph = self._recovery.graph()
                self._recovery = None
            return self._graph

    def _apply_overlay_op(self, builder: OverlayBuilder, op: dict) -> None:
        """Mirror one WAL operation into the overlay builder.

        Called *after* the op applied cleanly to the graph, so an
        inserted record's exact float64 vector can be read back from
        the graph — the same bits a recompile would snapshot.  Raising
        here is safe: the caller degrades to a full-recompile publish.
        """
        kind = op.get("op")
        graph = self._materialized_graph()
        if kind == "insert":
            rid = int(op["rid"])
            builder.insert(rid, graph.vector(rid))
        elif kind in ("delete", "mark_deleted"):
            builder.delete(int(op["rid"]))
        elif kind == "insert_many":
            for rid in op["rids"]:
                builder.insert(int(rid), graph.vector(int(rid)))
        elif kind == "delete_many":
            for rid in op["rids"]:
                builder.delete(int(rid))
        else:
            raise ValueError(f"unknown WAL operation {kind!r}")

    def _require_writable(self) -> None:
        if self._closed:
            raise ServiceUnavailable("closed")
        if self._draining:
            raise ServiceUnavailable("draining")
        if self._poisoned is not None:
            raise ServiceUnavailable(
                "poisoned",
                f"a mutation failed mid-apply "
                f"({type(self._poisoned).__name__}: {self._poisoned}); "
                "restart to recover from checkpoint + WAL",
            )

    # ------------------------------------------------------------------
    # Compaction (folding the overlay into the next base)
    # ------------------------------------------------------------------
    def compact(self, *, lock_timeout: float | None = None) -> bool:
        """Fold the live overlay into a fresh compiled base, now.

        Publishes under the *unchanged* epoch: the folded snapshot
        answers every query bit-identically to the base+overlay
        snapshot it replaces, so epoch-keyed caches and oracles stay
        valid.  The fabric is republished here (not per mutation), so
        workers resume serving batches after the fold.  Returns ``True``
        when a fold published, ``False`` when there was nothing to fold,
        the writer is unavailable, or ``lock_timeout`` expired first —
        the clamp that keeps the background compactor from queueing
        unboundedly behind a write burst.
        """
        if lock_timeout is None:
            acquired = self._writer_lock.acquire()
        else:
            acquired = self._writer_lock.acquire(timeout=lock_timeout)
        if not acquired:
            return False
        try:
            if self._closed or self._poisoned is not None:
                return False
            snap = self._snapshot
            if snap.overlay is None or self._overlay_limit <= 0:
                return False
            started = time.monotonic()
            # Content-identical to base+overlay: no epoch is consumed.
            folded = self._compile_base_locked(epoch=snap.epoch)
            self._snapshot = folded
            self._overlay_builder = OverlayBuilder(folded.compiled)
            self._base_generation += 1
            if self._fabric is not None:
                self._fabric.publish(folded.compiled, epoch=folded.epoch)
            elapsed_ms = 1000.0 * (time.monotonic() - started)
            self._compaction_stats["count"] += 1
            self._compaction_stats["last_ms"] = elapsed_ms
            self._compaction_stats["total_ms"] += elapsed_ms
            return True
        except Exception:  # repro: noqa[typed-errors] -- a failed fold must degrade (overflow still recompiles), never break the writer
            self._compaction_stats["failed"] += 1
            raise
        finally:
            self._writer_lock.release()

    def _compaction_due(self) -> bool:
        """The background compactor's probe: size or age threshold hit."""
        snap = self._snapshot
        overlay = snap.overlay
        if overlay is None or self._closed or self._poisoned is not None:
            return False
        if 2 * overlay.size >= self._overlay_limit:
            return True
        return (
            self._compact_age is not None
            and overlay.created_at > 0.0
            and time.monotonic() - overlay.created_at >= self._compact_age
        )

    def _timed_compact(self, lock_timeout: float) -> bool:
        """The compactor thread's entry point: a fold clamped to a wait."""
        return self.compact(lock_timeout=lock_timeout)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> str:
        """Write a durable checkpoint and atomically truncate the WAL.

        Returns the checkpoint file name now named by ``CURRENT``.
        """
        with self._writer_lock:
            if self._closed:
                raise ServiceUnavailable("closed")
            if self._poisoned is not None:
                self._require_writable()  # surfaces the poisoned detail
            return self._checkpoint_locked()

    def _checkpoint_locked(self, *, force: bool = False) -> str:
        started = time.monotonic()
        seq = self._wal.last_seq
        name = _CHECKPOINT_FMT.format(seq=seq)
        current, current_seq = _read_current(self._directory)
        if current == name and current_seq == seq and not force:
            return name  # nothing to checkpoint
        self._wal.sync()  # the log must be durable up to seq first
        _save_checkpoint(
            self._materialized_graph(), os.path.join(self._directory, name), seq
        )
        _write_current(self._directory, name, seq)
        # The swap is the commit point; everything after is cleanup that
        # recovery tolerates losing.
        wal_path = os.path.join(self._directory, WAL_NAME)
        self._wal.close()
        create_wal(wal_path, base_seq=seq)
        self._wal = WriteAheadLog(wal_path, fsync=self._fsync)
        _collect_orphan_checkpoints(self._directory, keep=name)
        self._ops_since_checkpoint = 0
        elapsed_ms = 1000.0 * (time.monotonic() - started)
        self._checkpoint_stats["count"] += 1
        self._checkpoint_stats["last_ms"] = elapsed_ms
        self._checkpoint_stats["total_ms"] += elapsed_ms
        self._rearm_scrubber()
        return name

    # ------------------------------------------------------------------
    # Store scrubbing and recovery
    # ------------------------------------------------------------------
    def _rearm_scrubber(self) -> None:
        """Point the scrubber at the current ``.dgs`` checkpoint, if any.

        Called at startup and after every checkpoint rotation.  Legacy
        ``.npz`` checkpoints are not scrubbable (their integrity check
        is the load-time manifest); the scrubber idles until the next
        checkpoint converts the directory.
        """
        if self._scrubber is None:
            return
        try:
            current, _seq = _read_current(self._directory)
        except (FileNotFoundError, IndexCorruptionError):
            return
        if not current.endswith(".dgs"):
            return
        path = os.path.join(self._directory, current)
        try:
            fresh = open_store(path)
        except (FileNotFoundError, StoreCorruptionError):
            return
        previous = self._scrub_store
        self._scrub_store = fresh
        self._scrubber.replace(fresh)
        if previous is not None:
            previous.close()

    def _on_store_corruption(self, exc: StoreCorruptionError) -> None:
        """Scrubber detection handler: quarantine, then rebuild.

        This is the degradation ladder for durable state: the mapped
        checkpoint failed its re-checksum, so the damaged file is moved
        to ``quarantine/`` (preserved as evidence, unservable) and a
        fresh checkpoint is written from the healthy in-memory graph —
        built, if no writer has yet, from the payload recovery verified
        and kept in memory, never from the damaged file —
        recompile-from-source, no downtime, queries unaffected
        throughout because they never touch the checkpoint file.
        """
        with self._writer_lock:
            if self._closed or self._poisoned is not None:
                return
            warnings.warn(
                DegradedResultWarning(
                    f"checkpoint failed scrubbing ({exc}); quarantining "
                    "and rewriting from the in-memory index"
                ),
                stacklevel=2,
            )
            if self._scrub_store is not None:
                self._scrub_store.close()
                self._scrub_store = None
            if exc.path is not None:
                _quarantine_file(self._directory, exc.path)
            self._store_recoveries += 1
            # force: the WAL sequence has not moved, but the file on
            # disk is gone (quarantined) and must be rewritten.
            self._checkpoint_locked(force=True)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness view: what the process is doing and how degraded.

        ``status`` is ``"ok"``, ``"degraded"`` (poisoned writer — reads
        still answer from the last good snapshot), or ``"closed"``.
        ``records`` is overlay-adjusted (current as of the last
        publish); ``edges`` is the edge count of the Dominant Graph the
        current base was compiled from — after a recovery that has not
        folded yet, the checkpoint's — since the graph keeps changing
        under a live overlay, and only the writer may walk it (or, after
        such a recovery, build it: this probe never does).
        """
        snap = self._snapshot
        wal_path = os.path.join(self._directory, WAL_NAME)
        try:
            wal_bytes = os.path.getsize(wal_path)
        except OSError:
            wal_bytes = -1
        if self._closed:
            status = "closed"
        elif self._poisoned is not None:
            status = "degraded"
        else:
            status = "ok"
        overlay = snap.overlay
        records = snap.compiled.num_records
        if overlay is not None:
            records += overlay.delta_count - overlay.deleted_count
        publish = dict(self._publish_stats)
        if self._publish_samples:
            samples = sorted(self._publish_samples)
            publish["p50_ms"] = samples[len(samples) // 2]
            publish["p99_ms"] = samples[
                min(len(samples) - 1, (99 * len(samples)) // 100)
            ]
        return {
            "status": status,
            "directory": self._directory,
            "epoch": snap.epoch,
            "applied_seq": snap.seq,
            "records": records,
            "pseudo": snap.compiled.num_pseudo,
            "edges": self._edges_at_fold,
            "wal": {
                "path": wal_path,
                "bytes": wal_bytes,
                "fsync": self._fsync,
                "last_seq": self._wal.last_seq,
                "ops_since_checkpoint": self._ops_since_checkpoint,
            },
            "admission": self._admission.snapshot(),
            "breakers": self._breakers.snapshot(),
            "policies": {
                "default_deadline_ms": self._timeouts.default_deadline_ms,
                "reply_timeout": self._timeouts.reply_timeout,
                "hedge_fraction": self._timeouts.hedge_fraction,
                "retry_attempts": self._retry.attempts,
            },
            "cache": (
                self._cache.stats() if self._cache is not None else None
            ),
            "parallel": (
                self._fabric.stats() if self._fabric is not None else None
            ),
            "store": {
                "publish": publish,
                "checkpoint": dict(self._checkpoint_stats),
                "scrubber": (
                    self._scrubber.stats()
                    if self._scrubber is not None
                    else None
                ),
                "recoveries": self._store_recoveries,
            },
            "overlay": {
                "enabled": self._overlay_limit > 0,
                "delta_records": (
                    overlay.delta_count if overlay is not None else 0
                ),
                "deleted_rows": (
                    overlay.deleted_count if overlay is not None else 0
                ),
                "size": overlay.size if overlay is not None else 0,
                "limit": self._overlay_limit,
                "base_generation": self._base_generation,
                "delta_publishes": self._overlay_publishes,
                "fallbacks": self._overlay_fallbacks,
                "compactions": dict(self._compaction_stats),
                "compactor": (
                    self._compactor.stats()
                    if self._compactor is not None
                    else None
                ),
            },
            "draining": self._draining,
            "poisoned": self._poisoned is not None,
        }

    def readiness(self) -> dict:
        """Readiness view: ``{"ready": bool, "reasons": [...]}``.

        Ready means this process should receive traffic: not draining,
        not closed, writer healthy, snapshot published.
        """
        reasons = []
        if self._closed:
            reasons.append("closed")
        elif self._draining:
            reasons.append("draining")
        if self._poisoned is not None:
            reasons.append("writer poisoned; restart to recover")
        return {"ready": not reasons, "reasons": reasons}

    def __repr__(self) -> str:
        snap = self._snapshot
        return (
            f"ServingIndex(dir={self._directory!r}, epoch={snap.epoch}, "
            f"seq={snap.seq}, records={snap.compiled.num_records}, "
            f"fsync={self._fsync!r})"
        )


def _collect_orphan_checkpoints(directory: str, keep: str) -> None:
    """Delete checkpoint files other than the one ``CURRENT`` names.

    Covers both formats, so converting a directory from ``.npz`` to
    ``.dgs`` checkpoints garbage-collects the superseded archive.
    """
    for name in os.listdir(directory):
        if (
            name.startswith("checkpoint-")
            and (name.endswith(".npz") or name.endswith(".dgs"))
            and name != keep
        ):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def _quarantine_file(directory: str, path: str) -> "str | None":
    """Move a damaged file into ``<dir>/quarantine/``; returns new path.

    Evidence preservation: the file is renamed, never deleted, and the
    quarantine directory is outside every serving code path, so no later
    open can accidentally serve it.  Returns ``None`` when the file
    disappeared meanwhile.
    """
    if not os.path.exists(path):
        return None
    pen = os.path.join(directory, QUARANTINE_DIR)
    os.makedirs(pen, exist_ok=True)
    target = os.path.join(pen, os.path.basename(path))
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = os.path.join(pen, f"{os.path.basename(path)}.{suffix}")
    os.replace(path, target)
    fsync_directory(directory)
    return target
