"""Worker-process side of the parallel query fabric.

Each worker is a long-lived process that attaches the shared snapshot
once (:func:`repro.parallel.shm.attach_snapshot`) and then serves tasks
from its private request queue until told to stop.  Workers never mutate
the shared arrays — the snapshot views are read-only — and they carry no
module-global randomness, so answers depend only on the task and the
snapshot epoch (``repro lint``'s ``worker-discipline`` rule enforces
both properties statically).

Task modes
----------
``full``
    One :meth:`~repro.core.compiled.CompiledDG.top_k` call per function —
    a batch of one through the same layer-progressive kernel as
    single-process serving, with per-function access counters.
``batch``
    All of the task's functions answered in one layer-progressive
    :func:`~repro.core.compiled.batch_top_k` sweep.
``shard``
    The worker scores only dense rows with
    ``row % shard_count == shard_index`` and returns its local top-k
    *candidate pairs*; the executor k-way-merges shard pairs into the
    final answer.  Exactness: the shards partition the record set, every
    record's score is computed by the same ``score_many`` contract as the
    reference engine (row values are identical regardless of which rows
    sit beside them in the block), and the merge orders by the engine's
    ``(-score, id)`` rule — so the merged top-k is the global top-k,
    bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compiled import batch_top_k
from repro.core.functions import ScoringFunction, WherePredicate
from repro.core.result import TopKResult, exact_top_k
from repro.errors import DeadlineExceeded
from repro.metrics.counters import AccessCounter
from repro.parallel.shm import AttachedSnapshot, SnapshotHandle, attach_snapshot
from repro.resilience.deadline import Deadline
from repro.store.mapped import StoreSnapshotHandle, attach_store

#: Algorithm label stamped on merged shard-mode results.
SHARD_ALGORITHM = "compiled-shard-scan"


@dataclass(frozen=True)
class QueryTask:
    """One unit of fabric work: a group of queries against one snapshot.

    ``deadline`` is the request's end-to-end
    :class:`~repro.resilience.deadline.Deadline`, pickled across the
    fork boundary — valid because ``CLOCK_MONOTONIC`` is system-wide on
    Linux, so parent and worker measure the same instant.  The worker
    threads it into the kernel's chunk-loop checkpoints; a worker that
    wakes from a stall mid-query stops at the next chunk instead of
    finishing an answer nobody is waiting for.
    """

    task_id: int
    mode: str
    functions: tuple
    k: int
    where: "WherePredicate | None" = None
    shard_index: int = 0
    shard_count: int = 1
    deadline: "Deadline | None" = None


@dataclass(frozen=True)
class PublishMessage:
    """Tell a worker to switch to a newer snapshot.

    ``handle`` is either a shared-memory
    :class:`~repro.parallel.shm.SnapshotHandle` or a file-backed
    :class:`~repro.store.mapped.StoreSnapshotHandle`; workers dispatch
    on the type, so the two transports interleave freely.
    """

    handle: "SnapshotHandle | StoreSnapshotHandle"


def attach_handle(
    handle: "SnapshotHandle | StoreSnapshotHandle",
) -> AttachedSnapshot:
    """Attach whichever snapshot transport the handle describes.

    File-backed handles run fast store verification on every attach, so
    a tampered or torn file surfaces as a typed
    :class:`~repro.errors.StoreCorruptionError` here — never as wrong
    answers later.
    """
    if isinstance(handle, StoreSnapshotHandle):
        return attach_store(handle)  # type: ignore[return-value]
    return attach_snapshot(handle)


@dataclass(frozen=True)
class TaskResult:
    """Worker reply: per-function payloads, or an error summary.

    ``error_kind`` discriminates typed failures so the executor can
    re-raise them typed instead of wrapping everything in
    :class:`~repro.errors.ParallelExecutionError`: ``"deadline"`` marks
    a :class:`~repro.errors.DeadlineExceeded` tripped inside the
    worker's kernel checkpoints; ``"query"`` covers everything else.
    """

    task_id: int
    worker_id: int
    epoch: int
    payload: "tuple | None"
    error: "str | None" = None
    error_kind: "str | None" = None


def shard_scan(
    snapshot: AttachedSnapshot,
    function: ScoringFunction,
    k: int,
    *,
    where: "WherePredicate | None" = None,
    shard_index: int = 0,
    shard_count: int = 1,
) -> "tuple[tuple, AccessCounter]":
    """Local top-k candidate pairs for one hash shard of the snapshot.

    Scores every answerable record whose dense row index hashes to this
    shard and returns up to ``k`` ``(score, record_id)`` pairs in the
    engine's ``(-score, id)`` order, plus the access counter for the
    scan.  The union of all shards' answerable rows is exactly the
    snapshot's answerable set, so merging the per-shard pairs yields the
    global top-k (see module docstring).
    """
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} out of range for "
            f"shard_count {shard_count}"
        )
    compiled = snapshot.compiled
    stats = AccessCounter()
    rows = np.arange(shard_index, compiled.num_records, shard_count)
    pseudo = compiled.pseudo_mask[rows]
    # Every row of the shard is charged, so the merged tally counts each
    # indexed record once; pseudo rows are never ranked.
    stats.count_computed_batch(
        compiled.record_ids[rows[pseudo]], pseudo=int(pseudo.sum())
    )
    rows = rows[~pseudo]
    result = exact_top_k(
        compiled.values.take(rows, axis=0), compiled.record_ids[rows], function, k,
        where=where, stats=stats,
    )
    return tuple(zip(result.scores, result.ids)), stats


def execute_task(snapshot: AttachedSnapshot, task: QueryTask) -> tuple:
    """Run one task against an attached snapshot and return its payload.

    ``full``/``batch`` payloads are tuples of :class:`TopKResult`;
    ``shard`` payloads are tuples of ``(pairs, stats)`` per function.
    """
    if task.deadline is not None:
        # A task that sat in a queue past its deadline (behind a stall,
        # behind a publish) must not start scoring at all.
        task.deadline.check(stage="worker")
    if task.mode == "full":
        return tuple(
            snapshot.compiled.top_k(
                function, task.k, where=task.where, deadline=task.deadline
            )
            for function in task.functions
        )
    if task.mode == "batch":
        return tuple(
            batch_top_k(
                snapshot.compiled,
                list(task.functions),
                task.k,
                where=task.where,
                deadline=task.deadline,
            )
        )
    if task.mode == "shard":
        return tuple(
            shard_scan(
                snapshot,
                function,
                task.k,
                where=task.where,
                shard_index=task.shard_index,
                shard_count=task.shard_count,
            )
            for function in task.functions
        )
    raise ValueError(f"unknown task mode: {task.mode!r}")


def worker_main(
    worker_id: int,
    handle: "SnapshotHandle | StoreSnapshotHandle",
    requests: "object",
    results: "object",
) -> None:
    """Entry point of one fabric worker process.

    Attaches the snapshot (shared-memory or mapped file, per the handle
    type), then loops: execute tasks, honour :class:`PublishMessage`
    snapshot swaps, exit on ``None``.  Query errors are reported back as
    :class:`TaskResult` errors — a bad query must not kill the worker,
    or one malformed request could take down a slot serving thousands of
    good ones.  A snapshot that cannot be attached at startup (already
    superseded, or failing store verification) exits the worker cleanly;
    the executor's healing machinery respawns it against the current
    epoch.
    """
    from repro.errors import StoreCorruptionError
    from repro.parallel.executor import _trace

    try:
        snapshot = attach_handle(handle)
    except (FileNotFoundError, StoreCorruptionError) as exc:
        # Never serve an unverifiable snapshot: exit and let the
        # executor respawn this slot onto the current publication.
        _trace(f"worker-attach-failed id={worker_id} err={exc!r}")
        return
    _trace(f"worker-up id={worker_id}")
    try:
        while True:
            message = requests.get()
            if message is None:
                _trace(f"worker-sentinel id={worker_id}")
                break
            if isinstance(message, PublishMessage):
                try:
                    fresh = attach_handle(message.handle)
                except FileNotFoundError:
                    # A newer publish already destroyed this segment or
                    # generation file; its own PublishMessage is behind
                    # this one in the FIFO, so keep serving the current
                    # mapping until it lands.
                    continue
                except StoreCorruptionError as exc:
                    # Quarantine-not-serve: a store file that fails
                    # verification is never mapped — keep answering
                    # from the (still correct) current snapshot until a
                    # clean generation is published.
                    _trace(
                        f"worker-publish-rejected id={worker_id} "
                        f"err={exc!r}"
                    )
                    continue
                previous = snapshot
                snapshot = fresh
                previous.close()
                continue
            try:
                payload = execute_task(snapshot, message)
                reply = TaskResult(
                    task_id=message.task_id,
                    worker_id=worker_id,
                    epoch=snapshot.epoch,
                    payload=payload,
                )
            except Exception as exc:  # repro: noqa[typed-errors] -- a worker must survive any query-time error and report it to the executor instead of dying
                reply = TaskResult(
                    task_id=message.task_id,
                    worker_id=worker_id,
                    epoch=snapshot.epoch,
                    payload=None,
                    error=f"{type(exc).__name__}: {exc}",
                    error_kind=(
                        "deadline"
                        if isinstance(exc, DeadlineExceeded)
                        else "query"
                    ),
                )
            results.put(reply)
            _trace(
                f"worker-replied id={worker_id} task={message.task_id}"
            )
    finally:
        snapshot.close()


def tag_epoch(result: TopKResult, epoch: int) -> TopKResult:
    """Stamp a worker-reported snapshot epoch onto a result."""
    return TopKResult(
        ids=result.ids,
        scores=result.scores,
        stats=result.stats,
        algorithm=result.algorithm,
        tier=result.tier,
        epoch=epoch,
    )
